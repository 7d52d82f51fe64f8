import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_searches.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_searches", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records():
    return [
        {"search": "search-exhaust compatible-0", "best_restart": 1, "success": False, "basis": "00ff", "history": [[0, "0x1p-3"], [1, "0x1p-4"]]},
        {"search": "search-exhaust compatible-1", "best_restart": 0, "success": False, "basis": "0ff0", "history": [[0, "0x1p-5"]]},
    ]


def restart(i):
    """A synthetic restart record whose counts are ``i`` to ``i + 4`` in the order of ``COUNTS``."""
    return {"restart": 0, "cycles": i, "probes": i + 1, "polish_iters": i + 2, "polish_accepted": i + 3, "newton_iters": i + 4, "phase": "polish"}


def streams():
    """Two searches of each of four streams (one of the exhaust stream): the certify stream and the
    random sets under two configs.  Search i has one restart, ``restart(i)``."""
    labels = ["search-certify cfs-example", "search-certify hesse-014", "search-exhaust compatible-0"]
    labels += [f"random-sets {config} set-{i} d=2 ranks=[1, 1]" for config in ("certify", "default") for i in (0, 1)]
    return [{"search": label, "success": True, "value": "0x1p-30", "basis": "00ff", "history": [restart(i)]} for i, label in enumerate(labels)]


#: The count-total lines of ``streams()`` in both trees, before the tool's last line.
TOTALS = [
    f"{name} {tree}: cycles {a}, probes {a + b}, polish_iters {a + 2 * b}, polish_accepted {a + 3 * b}, newton_iters {a + 4 * b}"
    for name, a, b in [("search-certify", 1, 2), ("search-exhaust", 2, 1), ("random-sets certify", 7, 2), ("random-sets default", 11, 2)]
    for tree in ("parent", "change")
]


def test_identical_searches_have_no_difference(tool):
    assert tool.first_difference(records(), records()) is None


def test_a_changed_record_names_its_search_and_restart(tool):
    change = records()
    change[0]["history"][1] = [1, "0x1.0000000000001p-4"]
    difference = tool.first_difference(records(), change)
    assert difference.startswith("search-exhaust compatible-0: restart 1 record")
    assert "0x1.0000000000001p-4" in difference


def test_a_changed_basis_names_its_search(tool):
    change = records()
    change[1]["basis"] = "0ff1"
    assert tool.first_difference(records(), change) == "search-exhaust compatible-1: basis 0ff0 against 0ff1"


def test_a_missing_search_is_a_length_mismatch(tool):
    assert tool.first_difference(records(), records()[:1]) == "2 searches against 1"


def test_both_trees_are_required(tool, capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.main([])
    assert exit_info.value.code == 2
    assert "--parent and --change are required" in capsys.readouterr().err


def test_a_search_label_names_its_stream(tool):
    assert tool.stream("search-certify hesse-014") == "search-certify"
    assert tool.stream("random-sets exhaust set-3 d=2 ranks=[1, 2]") == "random-sets exhaust"


def test_moved_counts_differences_and_flips_per_stream(tool):
    change = streams()
    change[1]["value"] = "0x1.8p-30"
    change[3]["success"] = False
    change[6]["basis"] = "00fe"
    assert tool.moved(streams(), change) == {
        "search-certify": (1, 0, 2),
        "search-exhaust": (0, 0, 1),
        "random-sets certify": (1, 1, 2),
        "random-sets default": (1, 0, 2),
    }


def test_a_missing_search_counts_as_differing(tool):
    assert tool.moved(streams(), streams()[1:])["search-certify"] == (1, 0, 2)


def test_a_difference_prints_each_stream_before_exiting_one(tool, capsys, monkeypatch):
    change = streams()
    change[0]["success"] = False
    monkeypatch.setattr(tool, "searches", lambda src: streams() if src == "parent" else change)
    assert tool.main(["--parent", "parent", "--change", "change"]) == 1
    assert capsys.readouterr().out.splitlines() == TOTALS + [
        "search-certify: 1 of 2 searches differ, 1 flip success",
        "search-exhaust: 0 of 1 searches differ, 0 flip success",
        "random-sets certify: 0 of 2 searches differ, 0 flip success",
        "random-sets default: 0 of 2 searches differ, 0 flip success",
        "differ: search-certify cfs-example: success True against False",
    ]


def test_no_difference_exits_zero_without_stream_counts(tool, capsys, monkeypatch):
    monkeypatch.setattr(tool, "searches", lambda src: streams())
    assert tool.main(["--parent", "parent", "--change", "change"]) == 0
    assert capsys.readouterr().out.splitlines() == TOTALS + ["all 7 searches match byte for byte"]


def test_count_totals_sum_every_restart_per_stream(tool):
    records = streams()
    records[0]["history"].append(restart(100))
    totals = tool.count_totals(records)
    assert list(totals) == ["search-certify", "search-exhaust", "random-sets certify", "random-sets default"]
    assert totals["search-certify"] == {"cycles": 101, "probes": 104, "polish_iters": 107, "polish_accepted": 110, "newton_iters": 113}
    assert totals["search-exhaust"] == dict(zip(tool.COUNTS, range(2, 7)))


def test_count_totals_differ_per_tree(tool, capsys, monkeypatch):
    change = streams()
    change[2]["history"][0]["probes"] += 5
    monkeypatch.setattr(tool, "searches", lambda src: streams() if src == "parent" else change)
    assert tool.main(["--parent", "parent", "--change", "change"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == [
        "search-exhaust parent: cycles 2, probes 3, polish_iters 4, polish_accepted 5, newton_iters 6",
        "search-exhaust change: cycles 2, probes 8, polish_iters 4, polish_accepted 5, newton_iters 6",
    ]
    assert lines[-1].startswith("differ: search-exhaust compatible-0: restart 0 record")

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
        {"search": "search-exhaust compatible-0", "best_restart": 1, "basis": "00ff", "history": [[0, "0x1p-3"], [1, "0x1p-4"]]},
        {"search": "search-exhaust compatible-1", "best_restart": 0, "basis": "0ff0", "history": [[0, "0x1p-5"]]},
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

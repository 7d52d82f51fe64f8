"""The README's Python quickstart and command lines run as printed."""

import ast
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sicmub import cfs_example_kets, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def run_quickstart():
    """Execute the README's ``python`` block statement by statement and
    return the namespace and the value of each bare expression, keyed by
    its source text."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    namespace: dict = {}
    values: dict = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return namespace, values


def test_quickstart_comments_hold():
    namespace, values = run_quickstart()
    check = values["sm.is_sic(sic)"]
    assert check.passed and check.residuals["max_gram_residual"] < 1e-12
    verdict = values["sm.qutrit_triple_criterion(kets[0], kets[1], kets[4])"]
    assert verdict.verdict == "incompatible" and verdict.saturated
    np.testing.assert_allclose(verdict.overlaps, (0.25, 0.25, 0.25), atol=1e-12)
    assert values["sm.covering_witness((0, 1, 4), mubs, sic)"] == [4]
    assert values["result.value"] < 1e-10 and namespace["result"].success
    check, matching = values["sm.verify_certificate(triple, result.basis, 1e-10)"]
    assert check.passed and matching == (2, 1, 0)
    assert values["sm.quadratic_purity_check(p).passed"]
    np.testing.assert_allclose(namespace["w"], [-1 / 3] + [1 / 6] * 8, atol=1e-12)
    assert abs(values["sm.negativity(w)"] - 1 / 3) < 1e-12
    assert values["sm.cabello_criterion(graph, 3).contextual"]


def readme_commands():
    """Every ``sicmub ...`` line of the README's ``sh`` blocks, split into
    arguments with the trailing comment dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks for line in block.splitlines() if line.startswith("sicmub ")]


#: Placeholder inputs for the file names the README's command lines use.
PLACEHOLDERS = {
    "my_states.json": {"dim": 3, "kets": cli.encode_complex(cfs_example_kets())},
    "state.json": {"dim": 3, "kets": cli.encode_complex(cfs_example_kets()[:1])},
    "probs.json": {"dim": 3, "probabilities": [0.0, 0.0, 0.0] + [1.0 / 6.0] * 6},
}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_command_line_runs_as_printed(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SICMUB_TOL", raising=False)
    for name, doc in PLACEHOLDERS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code = cli.main(argv)
    assert code in (0, 1), capsys.readouterr().err


def test_command_lines_show_every_subcommand():
    shown = {argv[0] for argv in readme_commands()}
    assert shown == {"verify-sic", "compat", "mubs", "wigner", "purity", "min-entropy", "graph"}

"""README examples stay in step with the package: every name its Python
blocks import from contactflow is exported, and every `contactflow` line of
its shell blocks passes the command line's own parse-and-check step."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import contactflow
from contactflow.cli import parse_args

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)
CLI_LINES = [line for lang, code in BLOCKS if lang == "sh"
             for line in code.splitlines() if line.startswith("contactflow ")]
# the untagged block is the example config file the shell block names
CONFIG = [code for lang, code in BLOCKS if lang == ""]


def test_python_imports_are_exported():
    names = {alias.name
             for lang, code in BLOCKS if lang == "python"
             for node in ast.walk(ast.parse(code))
             if isinstance(node, ast.ImportFrom) and node.module == "contactflow"
             for alias in node.names}
    assert names
    assert sorted(names - set(contactflow.__all__)) == []


def test_readme_has_cli_lines_and_config():
    assert len(CLI_LINES) >= 7 and len(CONFIG) == 1


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_passes_parse_and_check(line, tmp_path, monkeypatch):
    (tmp_path / "run.cfg").write_text(CONFIG[0])
    monkeypatch.chdir(tmp_path)
    try:
        parse_args(shlex.split(line, comments=True)[1:])
    except SystemExit as e:
        pytest.fail("%r exits %s" % (line, e.code))

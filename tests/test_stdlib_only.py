"""The runtime stays standard-library-only: no import outside the stdlib,
and no declared dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fatpoints").glob("*.py"))


def _absolute_imports(path):
    """The top-level module of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) > 1
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside


def test_project_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    # the [project] table, up to the next table header
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S)
    assert project is not None
    assert re.search(r"^dependencies = \[\]$", project.group(1), re.M)

"""Every definition in the package has a reader: each function, method and
class of src/fatpoints not named __*__ is referenced by its name somewhere
in src/ outside the package __init__ (which only re-exports), in tests/ or
in perfbench/.

A reference is a name or an attribute read anywhere in those files, or a
string constant equal to the name, as getattr, monkeypatch and the
benchmark's tracing table name functions.  The check is by name only, so it
cannot catch a dead method that shares its name with a live definition,
such as a method lift with no caller on a class other than
PointConfiguration, whose lift is read in many places; such a method is left
to review.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fatpoints"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_referenced():
    sources = sorted(PACKAGE.glob("*.py"))
    readers = [path for path in sources if path.name != "__init__.py"]
    readers += sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    referenced = set()
    for path in readers:
        referenced.update(_names_read(_parse(path)))
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sources
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    ]
    assert len(sources) > 1
    assert not unreferenced

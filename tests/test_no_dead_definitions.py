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

Every default-valued parameter has a caller too: some call in src/, tests/
or perfbench/ of a function or method of that name passes it, by position
or by keyword.  A call with *args or **kwargs counts as passing every
parameter, and a call of a class counts for its __init__.
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


def _defaults(fn, method: bool):
    """(name, position) of each parameter of fn with a default; position
    counts a call's positional arguments, so a method's self is not one of
    them, and is None for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - method
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _functions(tree):
    """(def, its class name or None, whether a call passes self) of every
    function and method."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owner[id(item)] = node.name
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls = owner.get(id(node))
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            yield node, cls, cls is not None and not static


def _calls(tree):
    """(callee name, positional count, keyword names) of every call; a call
    with *args or **kwargs passes everything, which its count of None says."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            starred = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            yield name, None if starred else len(node.args), keywords


def test_every_default_parameter_is_passed():
    sources = sorted(PACKAGE.glob("*.py"))
    calls: dict = {}
    callers = sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    for path in sources + callers:
        for name, count, keywords in _calls(_parse(path)):
            calls.setdefault(name, []).append((count, keywords))
    unpassed = [
        f"{path.name}:{fn.lineno} {fn.name}({param})"
        for path in sources
        for fn, cls, method in _functions(_parse(path))
        for param, position in _defaults(fn, method)
        if not any(
            count is None or param in keywords or (position is not None and position < count)
            for name in ((fn.name, cls) if fn.name == "__init__" else (fn.name,))
            for count, keywords in calls.get(name, ())
        )
    ]
    assert not unpassed

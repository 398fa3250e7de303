"""The README's Python examples run as written.

Stdlib only, so it also runs without pytest: ``PYTHONPATH=src python
tests/test_readme.py`` runs every block and stops at the first error.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    """The source of each fenced ``python`` block of README.md, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def run_block(source):
    """Run one block in a namespace of its own."""
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_every_python_block_runs():
    blocks = python_blocks()
    assert blocks, "README.md has no python block"
    for source in blocks:
        run_block(source)


if __name__ == "__main__":
    for source in python_blocks():
        run_block(source)

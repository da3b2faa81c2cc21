"""Every name a module imports is read in that module.

The check parses the package (but ``__init__.py``, whose imports are its
re-exports), the tests and the tools. A name counts as read where a ``Name``
node loads it, which covers an attribute's base, or where a function takes
it as a parameter, so a pytest fixture imported by name counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for folder in ("src/extham", "tests", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path != ROOT / "src/extham/__init__.py":
                yield path


def _unused_imports(tree):
    """(line, name) of each name tree imports and never reads."""
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
    return [(line, name) for line, name in imported if name not in read]


def test_every_imported_name_is_read():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in _sources()
              for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert unused == []


def test_the_check_sees_an_unused_import_and_a_fixture_parameter():
    tree = ast.parse("import os, numpy.linalg as la\nfrom x import a, b\n"
                     "def test(a): return la.norm\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "b")]

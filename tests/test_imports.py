"""Every name a module imports is read in that module.

The check parses the package (but ``__init__.py``, whose imports are its
re-exports), the tests and the tools. A name counts as read where a ``Name``
node loads it, which covers an attribute's base, or where a function takes
it as a parameter, so a pytest fixture imported by name counts.

And no module of the package reads numpy while it is imported, since
``extham`` loads numpy only at its first attribute read.
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


class _ImportTime(ast.NodeVisitor):
    """The nodes a module runs while it is imported: all but the bodies of its functions and lambdas,
    whose decorators, defaults and annotations do run."""

    def __init__(self):
        self.nodes = []

    def visit(self, node):
        self.nodes.append(node)
        super().visit(node)

    def visit_FunctionDef(self, node):
        for part in (*node.decorator_list, node.args, node.returns):
            if part is not None:
                self.visit(part)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.visit(node.args)


def _numpy_reads_at_import(tree):
    """Lines where tree reads numpy, under any name it imports it as, while it is imported."""
    names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names if a.name == "numpy"}
    visitor = _ImportTime()
    visitor.visit(tree)
    return sorted({node.lineno for node in visitor.nodes
                   if isinstance(node, ast.Name) and node.id in names
                   or isinstance(node, ast.ImportFrom) and node.module == "numpy"})


def test_no_module_of_the_package_reads_numpy_while_it_is_imported():
    # extham loads numpy at its first attribute read, so an import-time read would load it
    # in every process, scalar-only ones included
    reads = [f"{path.relative_to(ROOT)}:{line}" for path in sorted((ROOT / "src/extham").glob("*.py"))
             for line in _numpy_reads_at_import(ast.parse(path.read_text(), str(path)))]
    assert reads == []


def test_the_check_sees_numpy_read_by_a_class_body_a_statement_a_default_or_a_decorator():
    dataclass_ = "import numpy as np\nfrom dataclasses import dataclass\n@dataclass\nclass T:\n    x: np.ndarray\n"
    assert _numpy_reads_at_import(ast.parse(dataclass_)) == [5]
    assert _numpy_reads_at_import(ast.parse(dataclass_.replace("np.ndarray", "'np.ndarray'"))) == []
    assert _numpy_reads_at_import(ast.parse("import numpy as np\n_EPS = np.finfo(float).eps\n")) == [2]
    tree = ast.parse(
        "import numpy as n\n"
        "def f(x=n.pi, *, y: n.ndarray = None) -> n.ndarray:\n    return n.sqrt(x)\n"
        "@n.vectorize\ndef g(x):\n    return (lambda y=n.e: y)(x)\n"
        "h = lambda z=n.e: n.abs(z)\n"
        "from numpy import ndarray\n")
    assert _numpy_reads_at_import(tree) == [2, 4, 7, 8]

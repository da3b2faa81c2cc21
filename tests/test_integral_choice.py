"""Extension.first_integral is the one place that picks the integral a model carries.

The check parses the package and fails on any use of ``k_closed`` or
``kbar_closed`` outside that method, so a second place that chooses between
K and Kbar fails here instead of drifting from the first.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLOSED_FORMS = {"k_closed", "kbar_closed"}
CHOOSER = "Extension.first_integral"


def _closed_form_uses(tree):
    """(line, enclosing class and function names) of each name or attribute
    k_closed or kbar_closed that tree reads."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            name = (child.attr if isinstance(child, ast.Attribute)
                    else child.id if isinstance(child, ast.Name) else None)
            if name in CLOSED_FORMS and isinstance(child.ctx, ast.Load):
                uses.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(tree, [])
    return uses


def test_only_first_integral_reads_the_closed_forms():
    uses = [(path.name, scope)
            for path in sorted((ROOT / "src/extham").glob("*.py"))
            for _, scope in _closed_form_uses(ast.parse(path.read_text(), str(path)))]
    assert uses == [("extension.py", CHOOSER)] * 2  # k_closed() and kbar_closed(s, n)


def test_the_check_sees_a_second_chooser():
    tree = ast.parse("class Extension:\n"
                     "    def first_integral(self):\n"
                     "        return self.k_closed()\n"
                     "def _pair(ext, s):\n"
                     "    build = ext.kbar_closed\n"
                     "    return lambda: kbar_closed(s, 1)\n"
                     "def kbar_closed(s, r):\n"
                     "    return s\n")
    assert _closed_form_uses(tree) == [(3, CHOOSER), (5, "_pair"), (6, "_pair")]

"""Extension.first_integral is the one place that picks the integral a model carries.

The checks parse the package. One fails on any use of ``k_closed`` or
``kbar_closed`` outside that method, and one on any ``m % 2`` outside
``Extension._integral_choice``, the parity rule that method reads, so a
second place that chooses between K and Kbar fails here instead of drifting
from the first.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLOSED_FORMS = {"k_closed", "kbar_closed"}
CHOOSER = "Extension.first_integral"
PARITY_RULE = "Extension._integral_choice"


def _name(node):
    """The name an ast.Name or ast.Attribute node reads, else None."""
    return node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None


def _scoped(tree, matches):
    """(line, enclosing class and function names) of each node of tree that matches."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(tree, [])
    return found


def _closed_form_uses(tree):
    """(line, scope) of each name or attribute k_closed or kbar_closed that tree reads."""
    return _scoped(tree, lambda node: _name(node) in CLOSED_FORMS and isinstance(node.ctx, ast.Load))


def _m_parities(tree):
    """(line, scope) of each m % 2 that tree computes, m a name or an attribute."""
    return _scoped(tree, lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                   and _name(node.left) == "m"
                   and isinstance(node.right, ast.Constant) and node.right.value == 2)


def _package_uses(find):
    return [(path.name, scope)
            for path in sorted((ROOT / "src/extham").glob("*.py"))
            for _, scope in find(ast.parse(path.read_text(), str(path)))]


def test_only_first_integral_reads_the_closed_forms():
    # k_closed() and kbar_closed(s, n)
    assert _package_uses(_closed_form_uses) == [("extension.py", CHOOSER)] * 2


def test_only_the_integral_choice_reads_the_parity_of_m():
    assert _package_uses(_m_parities) == [("extension.py", PARITY_RULE)]


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


def test_the_check_sees_a_second_parity_rule():
    tree = ast.parse("class Extension:\n"
                     "    def _integral_choice(self):\n"
                     "        return m % 2 == 0\n"
                     "def _pair(spec, m, n):\n"
                     "    if spec.m % 2:\n"
                     "        return m % 2, m % 3, n % 2, 2 % m\n")
    assert _m_parities(tree) == [(3, PARITY_RULE), (5, "_pair"), (6, "_pair")]

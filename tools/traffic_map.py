"""Which statements of src/extham the digest's commands and the bench workloads run.

Runs under ``sys.settrace``, in one process:

- the 94 commands of tools/report_digest.py, as its ``digest()`` runs them;
- one round of each workload of bench/workloads.py at seed 1, after its
  warm-up, with the round and final checks.

The commands' trace starts before extham is imported, so module bodies and
the functions they call count as reached. Every statement of src/extham is
then reached by a command, reached only by a workload, or unreached. A
statement counts as reached when a line of its own runs, or the first
statement of its body. Docstrings are not statements. Prints the ROADMAP
Baseline's table, one row per class with one column per module, then one
JSON line with the first line of every statement no command reaches:

    python tools/traffic_map.py

Takes no flags, and runs in a fresh interpreter on this checkout's src. Uses
only the standard library, extham and bench/workloads.py, which it imports
without writing bytecode; the flow workload's CSVs go to a temporary
directory. Any trace function set before the run is restored after it.
"""

import ast
import importlib.util
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "extham"
# column order of the ROADMAP Baseline's table; modules not named here follow by name
COLUMNS = ("catalog", "duals", "extension", "phase", "cli", "dynamics", "tagged_trig",
           "ccm", "ladder")
# class -> its row in the table
CLASSES = {"command": "reached by a command", "workload": "reached only by a workload",
           "unreached": "unreached"}


@dataclass(frozen=True)
class Statement:
    line: int  # its first line
    own: frozenset  # the lines no statement inside it holds
    first: object  # the first statement of its body, or None
    functions: tuple  # qualified names of the functions it is in, outermost first
    refusal: bool  # a raise, or inside a branch that ends in one

    def reached(self, lines):
        return bool(self.own & lines) or (self.first is not None and self.first.reached(lines))


def _docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(source):
    """Every statement of source but its docstrings, in source order."""
    out = []

    def block(stmts, scope, functions, refusal, branch):
        if stmts and _docstring(stmts[0]) and not branch:
            stmts = stmts[1:]
        refusal = refusal or (branch and bool(stmts) and isinstance(stmts[-1], ast.Raise))
        return [one(s, scope, functions, refusal) for s in stmts]

    def one(node, scope, functions, refusal):
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own, first = range(start, node.end_lineno + 1), None
        if hasattr(node, "body"):
            own = range(start, max(start + 1, node.body[0].lineno))
            is_def = isinstance(node, DEFS)
            if is_def:
                scope = scope + (node.name,)
                if not isinstance(node, ast.ClassDef):
                    functions = functions + (".".join(scope),)
            body = block(node.body, scope, functions, refusal, not is_def)
            first = body[0] if body else None
            for part in [getattr(node, "orelse", []), getattr(node, "finalbody", [])] + [
                    h.body for h in getattr(node, "handlers", [])]:
                block(part, scope, functions, refusal, True)
        s = Statement(node.lineno, frozenset(own), first, functions,
                      refusal or isinstance(node, ast.Raise))
        out.append(s)
        return s

    block(ast.parse(source).body, (), (), False, False)
    return sorted(out, key=lambda s: s.line)


def trace_lines(run, files):
    """{file: lines executed} of files while run() runs; the earlier trace function is kept."""
    hit = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    earlier = sys.gettrace()
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(earlier)
    return hit


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_rounds(workloads):
    """One round of each workload at seed 1, after its warm-up, with its checks."""
    for cls in workloads.WORKLOADS.values():
        w = cls(1)
        try:
            w.warm_up()
            for op in w.ops:
                op.check(op.run())
            w.round_check()
            w.final_check()
        finally:
            w.close()


def traffic():
    """{module: {class: [first line of each statement]}} over src/extham.

    Call it in a fresh interpreter: the package is imported under the trace, so
    that the functions its modules call while they load count as reached.
    """
    if "extham" in sys.modules:
        raise RuntimeError("extham is imported already; run the map in a fresh interpreter")
    files = {p.stem: str(p) for p in sorted(PACKAGE.glob("*.py"))}
    sys.path.insert(0, str(ROOT / "src"))
    digest = _load(ROOT / "tools" / "report_digest.py", "report_digest")

    def commands():
        importlib.import_module("extham.cli")
        digest.digest()

    command_lines = trace_lines(commands, files.values())
    sys.path.insert(0, str(ROOT / "bench"))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        workloads = _load(ROOT / "bench" / "workloads.py", "workloads")
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(ROOT / "bench"))
    with tempfile.TemporaryDirectory() as tmp:
        workloads.OUT_DIR = tmp
        round_lines = trace_lines(lambda: _workload_rounds(workloads), files.values())
    out = {}
    for module, path in files.items():
        classes = out[module] = {c: [] for c in CLASSES}
        for s in statements(Path(path).read_text()):
            if s.reached(command_lines[path]):
                classes["command"].append(s.line)
            elif s.reached(round_lines[path]):
                classes["workload"].append(s.line)
            else:
                classes["unreached"].append(s.line)
    return out


def table(out):
    """The Baseline's table: one row of counts per class, one column per module."""
    modules = [m for m in COLUMNS if m in out] + sorted(m for m in out if m not in COLUMNS)
    rows = ["| statements | " + " | ".join(modules) + " |", "|---" * (len(modules) + 1) + "|"]
    for c, label in CLASSES.items():
        rows.append(f"| {label} | " + " | ".join(str(len(out[m][c])) for m in modules) + " |")
    return "\n".join(rows)


def main():
    out = traffic()
    print(table(out))
    missed = {c: {m: out[m][c] for m in out if out[m][c]} for c in ("workload", "unreached")}
    print(json.dumps(missed))


if __name__ == "__main__":
    main()

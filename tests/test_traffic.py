"""Every statement of src/extham that no command reaches has a reason to stay.

tools/traffic_map.py runs the 94 commands of tools/report_digest.py and one
round of each bench workload under ``sys.settrace``, in a fresh interpreter. A
statement that no command reaches passes when it is a refusal (a ``raise``, or
in a branch that ends in one) or lies inside a function that a REASONS entry
keeps, and what that entry says reaches it does reach it. A statement at
module level is named by its module. Every named test must exist and draw no
hypothesis cases, so that what it reaches is the same on every run.

The named tests run in one more fresh interpreter, each under the tool's
``trace_lines``: this file run as a script,

    python tests/test_traffic.py ARG...

collects the test files the ARGs name (a file, or a node id's file), runs the
tests whose node ids they name, each traced, and prints one JSON line.
"""

import functools
import importlib.util
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "traffic_map.py"
PACKAGE = ROOT / "src" / "extham"


@dataclass(frozen=True)
class Reason:
    """Why the functions in keeps stay, and what reaches them; set at least one of the last three.

    tests: node ids of tests (a bare parametrized one names all its cases), one of
        which, traced, reaches each statement kept;
    workloads: the tool's pass over the bench workloads reaches them;
    fresh: node ids of tests that run them in a fresh interpreter, out of the trace's sight.
    """
    why: str
    keeps: tuple  # the functions it keeps, as module.qualname, or a module for its top level
    tests: tuple = ()
    workloads: bool = False
    fresh: tuple = ()

    def __post_init__(self):
        if not (self.tests or self.workloads or self.fresh):
            raise ValueError(f"name what reaches them: {self.why}")


REASONS = (
    Reason("the chart map back to null coordinates, which no command or workload calls but "
           "bench/tracing.py patches as its span catalog.chart; the test takes points round it",
           ("catalog.null_coords_generic",),
           tests=("tests/test_catalog.py::test_pseudo_polar_round_trip",)),
    Reason("pointwise references that the round and final checks of bench/workloads.py call, "
           "and the float norm's rescale of a row whose squares overflow, which only a test takes",
           ("phase.poisson_bracket", "extension.bracket_scale", "extension._float_norm",
            "extension.Extension.k_magnitude", "extension.Extension.kbar_magnitude",
            "extension.Extension._magnitude", "extension.Extension._closed_form",
            "catalog.ModelInstance.integral"),
           workloads=True,
           tests=("tests/test_cli.py::test_an_overflowing_bracket_scale_is_refused_without_warning",)),
    Reason("no command or workload calls them, but bench/tracing.py times them as the spans "
           "extension.rank and phase.gradient, which read 0 (ROADMAP direction 11 deletes "
           "functional_independence after direction 1A); the tests' references take numpy "
           "gradients through gradient",
           ("extension.functional_independence", "phase.gradient"),
           tests=("tests/test_extension.py::test_functional_independence_ranks",)),
    Reason("Jet rules kept for K's momentum jets, which take pow_ on Jets (ROADMAP direction 4, "
           "stage A), and for jets along position directions through sqrt, log and fractional "
           "powers (direction 10)",
           ("duals._log_terms", "duals._sqrt_terms", "duals._tanh_terms", "duals._pow_terms",
            "duals.Jet.__pow__", "duals.Jet.__add__", "duals.Jet.__sub__", "duals.Jet.__rsub__",
            "duals.Jet.__truediv__", "duals.Jet.__rtruediv__"),
           tests=("tests/test_duals.py::test_jet_coefficients_match_nested_duals",
                  "tests/test_duals.py::test_dual_wraps_jet")),
    Reason("Dual rules that tests use: abs on floats and arrays, the comparisons, repr (compared "
           "by the untraceable rules) and the arithmetic of a Dual under a newer tag",
           ("duals.Dual.__repr__", "duals.Dual.__abs__", "duals.Dual.__lt__", "duals.Dual.__le__",
            "duals.Dual.__gt__", "duals.Dual.__ge__", "duals.Dual.__add__", "duals.Dual.__sub__",
            "duals.Dual.__rsub__", "duals.Dual.__mul__", "duals.Dual.__truediv__"),
           tests=("tests/test_duals.py::test_mixed_depth_arithmetic_and_comparisons",
                  "tests/test_duals.py::test_batch_abs_and_guards",
                  "tests/test_phase.py::test_untraceable_rules_are_left_to_partials_at",
                  "tests/test_phase.py::test_partials_at_equals_the_seeded_loop_on_every_leaf"
                      "[model minkowski Omega=0.0 L]")),
    Reason("the recursive route and the integrals' programs, which only the bench oracle reaches "
           "(ROADMAP Found 5; directions 1B and 2), and their branches that only tests take: the "
           "fallbacks to the evaluation where a rule cannot be traced or a guard flips",
           ("extension.Extension.k_recursive", "extension.Extension.kbar_recursive",
            "extension.Extension.gn_recursive", "extension.Extension.gn_closed",
            "extension.Extension._recursive_form", "extension.Extension._u_step",
            "extension.Extension._xl_powers", "extension.Extension._rule",
            "extension.flow_jets_by_evaluation", "phase.compile_rule", "duals.Jet.deriv",
            "duals.Jet.__mul__"),
           workloads=True,
           tests=("tests/test_extension.py::test_a_singular_first_point_keeps_no_program",
                  "tests/test_extension.py::test_a_flipped_guard_falls_back_to_the_evaluation",
                  "tests/test_phase.py::test_untraceable_rules_have_no_flow_program")),
    Reason("fallbacks and checks that only tests reach: the sweep's unit gradients where the "
           "scale underflows, gamma-table's unclassified label, the primal of a Jet, the "
           "derivative and coefficient of a constant, pow_ on numbers that are no float, the "
           "point a refusal names, the partials of a constant, an evaluation a Tape cannot "
           "trace and the first pole of a batch",
           ("cli._bracket_sweep", "cli._classify", "duals.primal", "duals.tangent_part",
            "duals.coefficient", "duals.pow_", "phase.PhasePoint.from_array", "phase.partials_at",
            "phase.trace_partials", "tagged_trig.GammaPoleError.__init__"),
           tests=("tests/test_cli.py::test_an_underflowing_bracket_scale_takes_the_unit_gradients",
                  "tests/test_cli.py::test_a_wrong_expected_label_fails_the_table",
                  "tests/test_duals.py::test_jet_truncation_and_shift",
                  "tests/test_duals.py::test_higher_order_derivatives",
                  "tests/test_ladder.py::test_free_base_potential_has_zero_derivatives",
                  "tests/test_duals.py::test_a_plain_number_that_is_no_float_takes_math_pow",
                  "tests/test_cli.py::test_an_overflowing_bracket_is_refused_by_its_point",
                  "tests/test_extension.py::test_u_operator_examples",
                  "tests/test_dynamics.py::test_an_untraceable_hamiltonian_takes_partials_at_every_iteration",
                  "tests/test_phase.py::test_compiled_partials_leave_the_gamma_pole_to_partials_at",
                  "tests/test_tagged_trig.py::test_pole_errors_in_a_batch_name_the_first_offending_u")),
    Reason("g and g'/eta_hat of a hyperbolic base with two nonzero coefficients, the paper's "
           "cosh and sinh bases: every command's exponential base has C2 = 0, so takes one "
           "exponential, and only the tests build the others",
           ("catalog.make_base_family.g_and_slope",),
           tests=("tests/test_catalog.py::test_every_family_passes_seed_residual",)),
    Reason("the closed-stdout handler and the `python -m extham.cli` guard",
           ("cli.main", "cli"),
           fresh=("tests/test_cli.py::test_a_closed_stdout_exits_two_with_one_stderr_line",)),
)


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traffic_map = _load(TOOL)


def _names(module, statement):
    """The names a Reason would keep statement by: its functions, or its module at top level."""
    return [f"{module}.{f}" for f in statement.functions] or [module]


def _named(nodeid, ids):
    """Whether ids name the test nodeid: as it is, or as the function it parametrizes."""
    return nodeid in ids or nodeid.split("[")[0] in ids


def unexplained(module, source, missed, reasons):
    """First lines of the statements in missed that are neither refusals nor kept by reasons."""
    kept = {name for r in reasons for name in r.keeps}
    return [s.line for s in traffic_map.statements(source)
            if s.line in missed and not s.refusal
            and not any(name in kept for name in _names(module, s))]


def stale(missed, reasons):
    """The names reasons keep that keep no statement in missed, {module: (source, _, lines)}."""
    keeping = {name for module, (source, _, lines) in missed.items()
               for s in traffic_map.statements(source) if s.line in lines
               for name in _names(module, s)}
    return [name for r in reasons for name in r.keeps if name not in keeping]


def unverified(module, source, workload, missed, reasons, hits):
    """First lines of the statements in missed, no refusals, that no reason keeping them shows reached.

    workload: the lines the tool's workload pass reaches; hits: {node id: {module:
    lines}} of the traced tests.
    """
    def shows(reason, s):
        return (reason.fresh or (reason.workloads and s.line in workload)
                or any(s.reached(set(lines.get(module, ()))) for nodeid, lines in hits.items()
                       if _named(nodeid, reason.tests)))

    out = []
    for s in traffic_map.statements(source):
        names = _names(module, s)
        keeping = [r for r in reasons if any(name in r.keeps for name in names)]
        if s.line in missed and not s.refusal and keeping and not any(
                shows(r, s) for r in keeping):
            out.append(s.line)
    return out


def failures(missed, reasons, tested):
    """What the check fails on: kept statements their reasons do not reach, named tests that
    do not exist, and named tests that hypothesis drives."""
    ids = [i for r in reasons for i in r.tests + r.fresh]
    out = {
        "unreached": {module: left for module, (source, workload, lines) in missed.items()
                      if (left := unverified(module, source, workload, lines, reasons,
                                             tested["hits"]))},
        "missing": [i for i in ids if not any(_named(n, [i]) for n in tested["collected"])],
        "drawn": [n for n in tested["drawn"] if _named(n, ids)],
    }
    return {k: v for k, v in out.items() if v}


class TracedTests:
    """A pytest plugin: runs only the tests ids name, each under trace_lines over files.

    Keeps every collected node id, the lines of files each test ran as
    {node id: {module: lines}}, and the node ids of the tests that ran a line
    of draws, the file whose code runs the cases a hypothesis test draws.
    """

    def __init__(self, ids, files, draws):
        self.ids, self.files, self.draws = ids, files, draws
        self.collected, self.hits, self.drawn = [], {}, []

    def pytest_collection_modifyitems(self, config, items):
        self.collected = [item.nodeid for item in items]
        run = [item for item in items if _named(item.nodeid, self.ids)]
        config.hook.pytest_deselected(items=[item for item in items if item not in run])
        items[:] = run
        for item in run:
            item.runtest = functools.partial(self._traced, item.nodeid, item.runtest)

    def _traced(self, nodeid, runtest):
        hit = traffic_map.trace_lines(runtest, [*self.files, self.draws])
        if hit.pop(self.draws):
            self.drawn.append(nodeid)
        self.hits[nodeid] = {Path(f).stem: sorted(lines) for f, lines in hit.items() if lines}


@pytest.fixture(scope="module")
def runs():
    """The output lines of the tool and of the named tests' traced run, two fresh interpreters
    started at once."""
    ids = {i for r in REASONS for i in r.tests} | {i.split("::")[0] for r in REASONS for i in r.fresh}
    ids = sorted(i for i in ids if (ROOT / i.split("::")[0]).is_file())  # the rest are missing
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
             for argv in ([sys.executable, str(TOOL)], [sys.executable, __file__, *ids])]
    try:
        outs = [proc.communicate(timeout=300) for proc in procs]
    except subprocess.TimeoutExpired:
        for proc in procs:
            proc.kill()
            proc.wait()
        raise
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, out + err
    return [out.splitlines() for out, _ in outs]


@pytest.fixture(scope="module")
def missed(runs):
    """{module: (source, lines only a workload reaches, lines no command reaches)} at this checkout."""
    lines = runs[0]
    assert lines[0].startswith("| statements | catalog | duals |")
    out, missed = json.loads(lines[-1]), {}
    for path in sorted(PACKAGE.glob("*.py")):
        workload = set(out["workload"].get(path.stem, []))
        missed[path.stem] = (path.read_text(), workload, workload | set(out["unreached"].get(path.stem, [])))
    return missed


@pytest.fixture(scope="module")
def tested(runs):
    """{"collected": node ids, "hits": {node id: {module: lines}}, "drawn": node ids} of the named tests."""
    return json.loads(runs[1][-1])


def test_every_statement_no_command_reaches_has_a_reason(missed):
    left = {module: left for module, (source, _, lines) in missed.items()
            if (left := unexplained(module, source, lines, REASONS))}
    assert left == {}


def test_every_reason_keeps_a_statement_no_command_reaches(missed):
    assert stale(missed, REASONS) == []


def test_what_each_reason_names_reaches_the_statements_it_keeps(missed, tested):
    assert failures(missed, REASONS, tested) == {}


SYNTHETIC = '''\
"""A module for the negative control."""


def called(x):
    if x < 0:
        message = f"negative {x}"
        raise ValueError(message)
    return x + 1


def planted(x):
    y = x * 2
    return y


def kept(x):
    return x - 1
'''


def _under_sentinel(run):
    """run() under a sentinel trace function, which must still be the trace function after it."""
    earlier = sys.gettrace()

    def sentinel(frame, event, arg):
        return None

    sys.settrace(sentinel)
    try:
        out = run()
        assert sys.gettrace() is sentinel
    finally:
        sys.settrace(earlier)
    return out


def test_the_check_sees_a_planted_function_and_restores_the_trace(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    hit = _under_sentinel(lambda: traffic_map.trace_lines(lambda: _load(path).called(1), [str(path)]))
    statements = traffic_map.statements(SYNTHETIC)
    missed = {s.line for s in statements if not s.reached(hit[str(path)])}
    assert missed == {6, 7, 12, 13, 17}
    keep = Reason("kept", ("synthetic.kept",), tests=("t.py::test_kept",))
    assert unexplained("synthetic", SYNTHETIC, missed, [keep]) == [12, 13]
    assert unexplained("synthetic", SYNTHETIC, missed, []) == [12, 13, 17]


def test_the_check_reports_a_reason_that_keeps_what_is_gone_or_reached():
    missed = {"synthetic": (SYNTHETIC, set(), {12, 13, 17})}  # planted and kept
    gone = Reason("gone", ("synthetic.gone",), tests=("t.py::test_gone",))
    called = Reason("reached", ("synthetic.called",), tests=("t.py::test_called",))
    keep = Reason("kept", ("synthetic.kept",), tests=("t.py::test_kept",))
    assert stale(missed, [gone, called, keep]) == ["synthetic.gone", "synthetic.called"]
    assert stale(missed, [keep]) == []


def test_the_check_fails_a_named_test_that_misses_its_statement_or_is_not_there(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    module = _load(path)
    draws_path = tmp_path / "draws.py"  # stands in for the code that runs a hypothesis test's cases
    draws_path.write_text("def draw(f):\n    return f(0.5)\n")
    draws = _load(draws_path)
    items = [SimpleNamespace(nodeid="t.py::test_called", runtest=lambda: module.called(1)),
             SimpleNamespace(nodeid="t.py::test_kept", runtest=lambda: module.kept(1)),
             SimpleNamespace(nodeid="t.py::test_drawn", runtest=lambda: draws.draw(module.kept)),
             SimpleNamespace(nodeid="t.py::test_unnamed", runtest=lambda: module.planted(1))]
    plugin = TracedTests(["t.py::test_called", "t.py::test_kept", "t.py::test_drawn"], [str(path)],
                         str(draws_path))
    deselected = []
    config = SimpleNamespace(hook=SimpleNamespace(pytest_deselected=lambda items: deselected.extend(items)))
    plugin.pytest_collection_modifyitems(config, items)
    assert [item.nodeid for item in deselected] == ["t.py::test_unnamed"]
    _under_sentinel(lambda: [item.runtest() for item in items])
    tested = {"collected": plugin.collected, "hits": plugin.hits, "drawn": plugin.drawn}
    missed = {"synthetic": (SYNTHETIC, set(), {12, 13, 17})}  # planted and kept

    def check(*tests):
        return failures(missed, [Reason("kept", ("synthetic.kept",), tests=tests)], tested)

    assert check("t.py::test_kept") == {}
    assert check("t.py::test_called") == {"unreached": {"synthetic": [17]}}
    assert check("t.py::test_kept", "t.py::test_gone") == {"missing": ["t.py::test_gone"]}
    assert check("t.py::test_drawn") == {"drawn": ["t.py::test_drawn"]}


if __name__ == "__main__":
    args = sys.argv[1:]
    hypothesis = importlib.util.find_spec("hypothesis")
    plugin = TracedTests(args, [str(p) for p in sorted(PACKAGE.glob("*.py"))],
                         str(Path(hypothesis.origin).parent / "core.py") if hypothesis else "")
    code = pytest.main(["-q", "-p", "no:cacheprovider", *sorted({a.split("::")[0] for a in args})],
                       plugins=[plugin])
    print(json.dumps({"collected": plugin.collected, "hits": plugin.hits, "drawn": plugin.drawn}))
    sys.exit(code)

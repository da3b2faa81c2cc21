"""Every statement of src/extham that no command reaches has a reason to stay.

tools/traffic_map.py runs the 94 commands of tools/report_digest.py and one
round of each bench workload under ``sys.settrace``, in a fresh interpreter. A
statement that no command reaches passes when it is a refusal (a ``raise``, or
in a branch that ends in one) or lies inside a function that REASONS names
with its reason. A statement at module level is named by its module.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "traffic_map.py"

# reason -> the functions it keeps, as module.qualname
REASONS = {
    "paper families that no command builds; test_catalog.py's "
    "test_every_family_passes_seed_residual checks each": (
        "catalog.cosh_base",
        "catalog.sinh_base",
        "catalog.momentum_free_seed_base",
    ),
    "pointwise references that tests and bench/ call: bench/tracing.py looks several "
    "of them up by name, and bench/workloads.py's checks call bracket_scale, "
    "poisson_bracket, ModelInstance.integral and the magnitudes": (
        "phase.poisson_bracket",
        "phase.gradient",
        "extension.bracket_scale",
        "extension.functional_independence",
        "extension.Extension.k_magnitude",
        "extension.Extension.kbar_magnitude",
        "extension.Extension._closed_form",
        "catalog.ModelInstance.integral",
        "catalog.null_coords_generic",
        "catalog.to_pseudo_polar",
        "catalog.from_pseudo_polar",
    ),
    "Jet rules kept for K's momentum jets, which take pow_ on Jets (ROADMAP direction 4, "
    "stage A), and for jets along position directions through sqrt, log and fractional "
    "powers (direction 10); test_jet_coefficients_match_nested_duals and "
    "test_partials_at_equals_the_seeded_loop_on_every_leaf reach them": (
        "duals._log_terms",
        "duals._sqrt_terms",
        "duals._tanh_terms",
        "duals._pow_terms",
        "duals.Jet.__pow__",
        "duals.Jet.__add__",
        "duals.Jet.__sub__",
        "duals.Jet.__rsub__",
        "duals.Jet.__truediv__",
        "duals.Jet.__rtruediv__",
    ),
    "Dual rules that tests use: abs and the comparisons "
    "(test_mixed_depth_arithmetic_and_comparisons, and test_dynamics.py's rules), repr "
    "(test_untraceable_rules_are_left_to_partials_at compares reprs), and the arithmetic "
    "of a Dual under a newer tag (test_partials_at_equals_the_seeded_loop_on_every_leaf)": (
        "duals.Dual.__repr__",
        "duals.Dual.__abs__",
        "duals.Dual.__lt__",
        "duals.Dual.__le__",
        "duals.Dual.__gt__",
        "duals.Dual.__ge__",
        "duals.Dual.__add__",
        "duals.Dual.__sub__",
        "duals.Dual.__rsub__",
        "duals.Dual.__mul__",
        "duals.Dual.__truediv__",
    ),
    "the recursive route and its fast paths, which only the bench oracle reaches "
    "(ROADMAP Found 5; directions 1B and 2)": (
        "extension.Extension.k_recursive",
        "extension.Extension.kbar_recursive",
        "extension.Extension.gn_recursive",
        "extension.Extension.gn_closed",
        "extension.Extension._recursive_form",
        "extension.Extension._u_step",
        "extension.Extension._xl_powers",
        "extension.BaseSystem._kept",
        "extension.BaseSystem.partials",
        "extension.BaseSystem.flow_jets",
        "extension.flow_jets_by_evaluation",
        "extension.compile_flow_series",
        "phase.compile_partials",
        "duals.Tape.series",
        "duals.Jet.deriv",
        "duals.Jet.__mul__",
    ),
    "fallbacks and checks that only tests reach: the sweep's unit gradients where the "
    "scale underflows (test_an_underflowing_bracket_scale_takes_the_unit_gradients), "
    "gamma-table's unclassified label (test_a_wrong_expected_label_fails_the_table), "
    "the primal of a Jet (test_jet_truncation_and_shift), the derivative and "
    "coefficient of a constant (test_higher_order_derivatives, "
    "test_free_base_potential_has_zero_derivatives), pow_ on plain numbers that are no "
    "float (test_a_plain_number_that_is_no_float_takes_math_pow), the point a refusal "
    "names, the partials of a constant (test_u_operator_examples), an evaluation a "
    "Tape cannot trace (test_compiled_partials_leave_the_gamma_pole_to_partials_at) and "
    "the first pole of a batch (test_pole_errors_in_a_batch_name_the_first_offending_u)": (
        "cli._bracket_sweep",
        "cli._classify",
        "duals.primal",
        "duals.tangent_part",
        "duals.coefficient",
        "duals.pow_",
        "phase.PhasePoint.from_array",
        "phase.partials_at",
        "phase.trace_partials",
        "tagged_trig.GammaPoleError.__init__",
    ),
    "the closed-stdout handler and the `python -m extham.cli` entry, which only "
    "test_cli.py's fresh interpreters reach "
    "(test_a_closed_stdout_exits_two_with_one_stderr_line)": (
        "cli.main",
        "cli",
    ),
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("traffic_map", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traffic_map = _load_tool()


def _names(module, statement):
    """The REASONS keys that would keep statement: its functions, or its module at top level."""
    return [f"{module}.{f}" for f in statement.functions] or [module]


def unexplained(module, source, missed, reasons):
    """First lines of the statements in missed that are neither refusals nor kept by reasons."""
    kept = {name for names in reasons.values() for name in names}
    return [s.line for s in traffic_map.statements(source)
            if s.line in missed and not s.refusal
            and not any(name in kept for name in _names(module, s))]


@pytest.fixture(scope="module")
def missed():
    """{module: (source, first lines of the statements no command reaches)} at this checkout."""
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=300, check=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    assert lines[0].startswith("| statements | catalog | duals |")
    out = json.loads(lines[-1])
    return {path.stem: (path.read_text(), set(out["workload"].get(path.stem, []))
                        | set(out["unreached"].get(path.stem, [])))
            for path in sorted((ROOT / "src" / "extham").glob("*.py"))}


def test_every_statement_no_command_reaches_has_a_reason(missed):
    left = {module: left for module, (source, lines) in missed.items()
            if (left := unexplained(module, source, lines, REASONS))}
    assert left == {}


def test_every_reason_keeps_a_statement_no_command_reaches(missed):
    keeping = {name for module, (source, lines) in missed.items()
               for s in traffic_map.statements(source) if s.line in lines
               for name in _names(module, s)}
    stale = [name for names in REASONS.values() for name in names if name not in keeping]
    assert stale == []


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


def test_the_check_sees_a_planted_function_and_restores_the_trace(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)

    def run():
        spec = importlib.util.spec_from_file_location("synthetic", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.called(1)

    earlier = sys.gettrace()

    def sentinel(frame, event, arg):
        return None

    sys.settrace(sentinel)
    try:
        hit = traffic_map.trace_lines(run, [str(path)])[str(path)]
        assert sys.gettrace() is sentinel
    finally:
        sys.settrace(earlier)
    statements = traffic_map.statements(SYNTHETIC)
    missed = {s.line for s in statements if not s.reached(hit)}
    assert missed == {6, 7, 12, 13, 17}
    assert unexplained("synthetic", SYNTHETIC, missed, {"kept": ("synthetic.kept",)}) == [12, 13]
    assert unexplained("synthetic", SYNTHETIC, missed, {}) == [12, 13, 17]

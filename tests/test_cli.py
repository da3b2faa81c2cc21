import argparse
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from extham import catalog, cli, phase
from extham import duals as dm
from extham.cli import main
from extham.ccm import rescale_radial
from extham.extension import bracket_scale, functional_independence, jacobian_rank, row_norms
from extham.duals import primal
from extham.phase import PhaseFunction, PhasePoint, gradient, partials_at, poisson_bracket
from extham.sampling import sample_points

from references import columns, phase_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_minkowski_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "minkowski", "--k", "1", "--alpha", "1",
        "--beta", "2", "--omega", "0", "--points", "50", "--seed", "7", "--tol", "1e-9",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_rel_bracket"] <= 1e-9
    assert report["independence_rank"] == report["expected_rank"] == 3
    assert report["rng"] == "philox4x64-10"
    assert (report["m"], report["n"]) == (4, 1)


def test_verify_uses_kbar_for_nonzero_omega(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "minkowski", "--k", "1", "--alpha", "1",
        "--beta", "2", "--omega", "0.3", "--points", "15", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert "Kbar(4,1)" in report["integrals_checked"]


def test_verify_odd_m_kbar_indices(capsys):
    # k=1/2: (m, n) = (3, 1); with Omega != 0 the integral is Kbar(6,2)
    code, out, _ = run_cli(
        capsys, "verify", "--model", "minkowski", "--k", "1/2", "--omega", "0.3",
        "--points", "10", "--seed", "9",
    )
    assert code == 0
    report = json.loads(out)
    assert "Kbar(6,2)" in report["integrals_checked"]


def test_verify_remark_model(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "remark-h1", "--d", "2", "--points", "25",
        "--seed", "11", "--tol", "1e-10",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["model"]["extendable"] is False
    assert report["integrals_checked"] == ["I1"]


def test_verify_rejects_float_k(capsys):
    code, out, err = run_cli(capsys, "verify", "--model", "minkowski", "--k", "0.5")
    assert code == 2
    assert "error" in json.loads(out)


def test_verify_irrational_k_with_no_integral(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "minkowski", "--k", "0.37", "--no-integral",
        "--points", "10",
    )
    assert code == 0
    report = json.loads(out)
    assert report["integrals_checked"] == ["L"]
    assert report["pass"] is True


def test_verify_curved_models(capsys):
    for model in ("sphere", "pseudosphere", "ttw-flat"):
        code, out, _ = run_cli(
            capsys, "verify", "--model", model, "--k", "1", "--alpha", "1.0",
            "--beta", "0.5", "--eta", "1", "--omega", "0.2", "--points", "10",
        )
        assert code == 0, model
        assert json.loads(out)["pass"] is True
    for model in ("de-sitter", "anti-de-sitter"):
        code, out, _ = run_cli(
            capsys, "verify", "--model", model, "--k", "1", "--alpha", "0.7",
            "--beta", "1.3", "--eta", "2", "--omega", "0.2", "--points", "10",
        )
        assert code == 0, model
        assert json.loads(out)["pass"] is True


def test_verify_exit_one_on_failed_verification(capsys):
    # an absurd tolerance cannot be met; the report says so and exits 1
    code, out, _ = run_cli(
        capsys, "verify", "--model", "minkowski", "--k", "1", "--points", "10",
        "--tol", "1e-22",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_reports_are_byte_identical_across_runs(capsys):
    args = ("verify", "--model", "minkowski", "--k", "1", "--points", "10", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_gamma_table_passes(capsys):
    code, out, _ = run_cli(capsys, "gamma-table", "--json")
    assert code == 0
    table = json.loads(out)
    assert table["pass"] is True
    assert all(row["match"] for row in table["gamma_prime"])
    assert all(row["match"] for row in table["gamma_squared"])


def test_a_wrong_expected_label_fails_the_table(capsys, monkeypatch):
    # the candidates are the expected labels, so the true -sin^-2(u) is no longer one
    monkeypatch.setitem(cli._GAMMA_PRIME_EXPECTED, (1, 1, False), "-cos^-2(u)")
    code, out, _ = run_cli(capsys, "gamma-table", "--json")
    assert code == 1
    table = json.loads(out)
    assert table["pass"] is False
    failed = [row for row in table["gamma_prime"] if not row["match"]]
    assert failed == [{"c": 1, "kappa": 1, "translated": False, "expected": "-cos^-2(u)",
                       "classified": "unclassified", "match": False}]
    code, out, _ = run_cli(capsys, "gamma-table")
    assert code == 1
    assert out.count("MISMATCH") == 1


_WRITTEN_OUT = {
    "+sin^-2(u)": lambda u: 1.0 / math.sin(u) ** 2,
    "-sin^-2(u)": lambda u: -1.0 / math.sin(u) ** 2,
    "+sinh^-2(u)": lambda u: 1.0 / math.sinh(u) ** 2,
    "-sinh^-2(u)": lambda u: -1.0 / math.sinh(u) ** 2,
    "+cos^-2(u)": lambda u: 1.0 / math.cos(u) ** 2,
    "-cos^-2(u)": lambda u: -1.0 / math.cos(u) ** 2,
    "+cosh^-2(u)": lambda u: 1.0 / math.cosh(u) ** 2,
    "-cosh^-2(u)": lambda u: -1.0 / math.cosh(u) ** 2,
    "tan^2(u)": lambda u: math.tan(u) ** 2,
    "tan^-2(u)": lambda u: 1.0 / math.tan(u) ** 2,
    "tanh^2(u)": lambda u: math.tanh(u) ** 2,
    "tanh^-2(u)": lambda u: 1.0 / math.tanh(u) ** 2,
}


def test_each_table_label_reads_as_its_formula():
    labels = [*cli._GAMMA_PRIME_EXPECTED.values(), *cli._GAMMA_SQ_EXPECTED.values()]
    assert sorted(labels) == sorted(_WRITTEN_OUT)
    for label in labels:
        for u in cli._CLASSIFY_SAMPLES:
            assert cli._form(label, u) == _WRITTEN_OUT[label](u), (label, u)


def test_integrate_free_particle(capsys, tmp_path):
    path = str(tmp_path / "free.csv")
    code, out, _ = run_cli(
        capsys, "integrate", "--model", "free", "--x0", "0", "0", "1", "0",
        "--h", "0.01", "--steps", "100", "--csv", path,
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "completed"
    assert report["drift"]["H"] <= 1e-12
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q1", "q2", "p1", "p2"]
    t, q1 = float(rows[-1][0]), float(rows[-1][1])
    assert q1 == pytest.approx(t, abs=1e-12)


def test_integrate_domain_exit(capsys, tmp_path):
    path = str(tmp_path / "fall.csv")
    code, out, _ = run_cli(
        capsys, "integrate", "--model", "minkowski", "--k", "1", "--x0",
        "1", "0", "0.2", "0.5", "--h", "1e-3", "--steps", "10000",
        "--u-min", "0.35", "--csv", path,
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "domain-exit"
    assert report["exit_step"] < 10000
    assert os.path.exists(path)


def test_null_chart_sets_no_floor_on_q1(capsys, tmp_path):
    # q1 = 0.04 is below the default --u-min, but u = sqrt(2 q1 q2) = 0.89, and
    # on the free base (alpha = beta = 0) q1 moves away from 0
    path = str(tmp_path / "null.csv")
    code, out, _ = run_cli(capsys, "integrate", "--chart", "null", "--alpha", "0", "--beta", "0",
                           "--x0", "0.04", "10", "0.1", "0.1", "--steps", "100", "--csv", path)
    report = json.loads(out)
    assert code == 0
    assert (report["status"], report["steps_completed"]) == ("completed", 100)


def test_negative_step_in_exponent_form(capsys, tmp_path):
    # "--h=-1e-3" runs backwards in time; "--h -1e-3" is an argparse usage
    # error, because a dash-led token with an exponent reads as an option
    path = str(tmp_path / "back.csv")
    argv = ("integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "3", "--csv", path)
    code, out, _ = run_cli(capsys, *argv, "--h=-1e-3")
    assert code == 0
    report = json.loads(out)
    assert (report["h"], report["status"]) == (-0.001, "completed")
    with open(path) as fh:
        assert float(list(csv.reader(fh))[-1][0]) == 3 * -0.001
    code, out, err = run_cli(capsys, *argv, "--h", "-1e-3")
    assert code == 2 and "expected one argument" in json.loads(out)["error"]


def test_ladder_command(capsys):
    for branch in ("hyperbolic", "trig"):
        code, out, _ = run_cli(
            capsys, "ladder", "--branch", branch, "--points", "25", "--seed", "5",
        )
        assert code == 0, branch
        report = json.loads(out)
        assert report["pass"] is True
        assert report["max_rel_residual"] <= 1e-10
        assert "eigen_diagnostic" in report


def test_ccm_command(capsys):
    code, out, _ = run_cli(capsys, "ccm", "--points", "15", "--seed", "6")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["rescaled_max_rel_bracket"] <= 1e-9


def test_catalog_command(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    listing = json.loads(out)["models"]
    assert any(entry["id"] == "minkowski" for entry in listing)
    assert any(entry["extendable"] is False for entry in listing)


_K_TEXT = "--k must be a rational p/q, or a decimal with --no-integral; got "
_ETA_TEXT = "eta={} is out of range: c = +-eta^2 and c^2 must be finite, normal, nonzero doubles"


@pytest.mark.parametrize("argv,message", [
    (("verify", "--model", "minkowski", "--k", "1000001/1000000"),
     "K(2000001,500000) has momentum degree 3000000, above the cap of 30"),
    (("verify", "--model", "minkowski", "--alpha", "nan"), "alpha"),
    (("verify", "--model", "minkowski", "--points", "0"), "points"),
    (("verify", "--model", "minkowski", "--points", "-1"), "points"),
    (("verify", "--model", "minkowski", "--k", "14"),
     "K(30,1) has momentum degree 31, above the cap of 30"),
    (("verify", "--model", "minkowski", "--k", "13/2", "--omega", "0.3"),
     "Kbar(30,2) has momentum degree 33, above the cap of 30"),
    (("integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "-5"),
     "argument --steps: expected a positive integer, got '-5'"),
    (("integrate", "--x0", "1", "0", "3.2", "0.5", "--tol", "1"),
     "unrecognized arguments: --tol 1"),
    (("verify", "--model", "minkowski", "--json"), "unrecognized arguments: --json"),
    (("ccm", "--json"), "unrecognized arguments: --json"),
    (("ladder", "--json"), "unrecognized arguments: --json"),
    (("catalog", "--json"), "unrecognized arguments: --json"),
    (("verify", "--model", "minkowski", "--tol", "-1"),
     "argument --tol: expected a finite number >= 0, got '-1'"),
    (("ccm", "--tol", "-0.5"), "argument --tol: expected a finite number >= 0, got '-0.5'"),
    (("ladder", "--tol", "nan"), "argument --tol: expected a finite number >= 0, got 'nan'"),
    (("verify", "--model", "sphere", "--eta", "0"), "eta must be nonzero"),
    (("verify", "--model", "pseudosphere", "--eta", "0"), "eta must be nonzero"),
    (("verify", "--model", "ttw-flat", "--eta", "0"), "eta must be nonzero"),
    (("ladder", "--branch", "trig", "--eta", "0"), "eta must be nonzero"),
    (("ladder", "--alpha", "0", "--beta", "0", "--eta", "0"), "eta must be nonzero"),
    # at |eta| = 2 the default window (0.05, (pi - 0.4 - psi0)/2) is empty from psi0 ~ 2.64
    (("verify", "--model", "sphere", "--psi0", "3.0"),
     "psi0=3.0 leaves an empty psi window (0.05, -0.1292036732051034) at |eta|=2.0"),
    (("ladder", "--branch", "trig", "--psi0", "3.0"),
     "psi0=3.0 leaves an empty psi window (0.05, -0.1292036732051034) at |eta|=2.0"),
    # powers of huge integral indices overflow inside the closed-form K
    (("verify", "--model", "ttw-flat", "--m", "150"),
     "the gradient of K(150,1) overflows double precision"),
    (("verify", "--model", "sphere", "--k", "150"),
     "the gradient of K(151,1) overflows double precision"),
    (("ccm", "--m", "120"), "the gradient of Kprime overflows double precision"),
    (("ccm", "--m", "160"), "the gradient of Kprime overflows double precision"),
    # --k text that is no number is refused by name, in verify and integrate alike
    (("verify", "--model", "minkowski", "--k", "1/0"), _K_TEXT + "'1/0'"),
    (("verify", "--model", "minkowski", "--k", "abc"), _K_TEXT + "'abc'"),
    (("verify", "--model", "minkowski", "--k", "1.5.2", "--no-integral"), _K_TEXT + "'1.5.2'"),
    (("verify", "--model", "minkowski", "--k", "1.e400", "--no-integral"), _K_TEXT + "'1.e400'"),
    (("integrate", "--k", "abc", "--x0", "1", "0", "3.2", "0.5"), _K_TEXT + "'abc'"),
    # a rational whose float overflows
    (("verify", "--model", "minkowski", "--k", "1e400"), _K_TEXT + "'1e400'"),
    # eta whose c = +-eta^2 or c^2 leaves the normal doubles is refused by name
    (("ccm", "--eta", "1e200"), _ETA_TEXT.format("1e+200")),
    (("ladder", "--eta", "1e200"), _ETA_TEXT.format("1e+200")),
    (("ladder", "--eta", "1e100"), _ETA_TEXT.format("1e+100")),
    (("verify", "--model", "de-sitter", "--eta", "1e200"), _ETA_TEXT.format("1e+200")),
    (("ladder", "--alpha", "0", "--beta", "0", "--eta", "1e200"), _ETA_TEXT.format("1e+200")),
    (("verify", "--model", "sphere", "--eta", "1e-200"), _ETA_TEXT.format("1e-200")),
    (("verify", "--model", "de-sitter", "--eta", "1e-200"), _ETA_TEXT.format("1e-200")),
    (("verify", "--model", "sphere", "--eta", "1e-160"), _ETA_TEXT.format("1e-160")),
    (("ccm", "--eta", "1e-200"), _ETA_TEXT.format("1e-200")),
    (("ccm", "--eta", "1e-160"), _ETA_TEXT.format("1e-160")),
    (("ladder", "--eta", "1e-200"), _ETA_TEXT.format("1e-200")),
    (("ladder", "--eta", "1e-160"), _ETA_TEXT.format("1e-160")),
    # an x0 outside H's domain is refused before the first step
    (("integrate", "--x0", "0", "0", "3.2", "0.5"), "gamma profile singular at u=0.0"),
    (("integrate", "--chart", "null", "--x0", "1", "0", "3.2", "0.5"),
     "Minkowski family is defined on the wedge q1, q2 > 0"),
    # refused at parse time, before integrate logs or opens its CSV
    (("integrate", "--x0", "1", "0", "3.2", "0.5", "--h", "0"),
     "argument --h: expected a finite nonzero number, got '0'"),
    # Philox keys are integers in [0, 2**128)
    (("verify", "--model", "minkowski", "--seed", "-1"),
     "argument --seed: expected an integer in [0, 2**128), got '-1'"),
    (("ladder", "--seed=-3"), "argument --seed: expected an integer in [0, 2**128), got '-3'"),
    (("ccm", "--seed", str(2**128)),
     f"argument --seed: expected an integer in [0, 2**128), got '{2**128}'"),
    (("verify", "--model", "sphere", "--k=-1"), "k must exceed -1"),
    (("verify", "--model", "minkowski", "--k=-1"), "k = -1 degenerates the pseudo-polar map"),
    # the null chart has no radial coordinate for --u-min to bound
    (("integrate", "--chart", "null", "--u-min", "0.01", "--x0", "1", "1", "3.2", "0.5"),
     "--u-min is not read by --chart null"),
], ids=["overflow", "nan-alpha", "zero-points", "negative-points", "degree-cap",
        "degree-cap-doubled", "negative-steps", "integrate-tol", "verify-json", "ccm-json",
        "ladder-json", "catalog-json", "verify-negative-tol", "ccm-negative-tol", "ladder-nan-tol",
        "sphere-zero-eta", "pseudosphere-zero-eta", "ttw-flat-zero-eta", "ladder-trig-zero-eta",
        "ladder-free-zero-eta", "sphere-empty-window", "ladder-trig-empty-window",
        "ttw-flat-overflow", "sphere-overflow", "ccm-overflow-120", "ccm-overflow-160",
        "k-zero-denominator", "k-not-a-number", "k-two-points", "k-infinite-decimal",
        "integrate-k-not-a-number", "k-overflowing-rational",
        "ccm-huge-eta", "ladder-huge-eta", "ladder-eta-1e100", "de-sitter-huge-eta",
        "ladder-free-huge-eta", "sphere-tiny-eta", "de-sitter-tiny-eta", "sphere-eta-1e-160",
        "ccm-tiny-eta", "ccm-eta-1e-160", "ladder-tiny-eta", "ladder-eta-1e-160",
        "x0-at-gamma-pole", "x0-off-wedge", "integrate-zero-h", "verify-negative-seed",
        "ladder-negative-seed", "ccm-seed-2**128", "sphere-k-minus-one",
        "minkowski-k-minus-one", "null-chart-u-min"])
def test_errors_exit_two_with_json_error(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)  # integrate writes its default CSV path here
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in json.loads(out)["error"]
    assert "truncated" not in err
    if message.startswith(("argument", "unrecognized")):  # a usage error writes nothing
        assert err.startswith("usage:") and not (tmp_path / "trajectory.csv").exists()


def test_seed_takes_the_philox_key_range(capsys):
    for seed in (0, 2**128 - 1):
        code, out, _ = run_cli(capsys, "ccm", "--points", "3", "--seed", str(seed))
        assert code in (0, 1) and json.loads(out)["rng_seed"] == seed


# a value away from each model flag's default in every subcommand that has the flag
_OFF_DEFAULT = {"k": ("--k", "2"), "alpha": ("--alpha", "3"), "beta": ("--beta", "3"),
                "omega": ("--omega", "0.5"), "eta": ("--eta", "3"), "psi0": ("--psi0", "0.5"),
                "m": ("--m", "3"), "n": ("--n", "2"), "d": ("--d", "3"),
                "no_integral": ("--no-integral",), "chart": ("--chart", "null"),
                "u_min": ("--u-min", "0.1")}
_TABLES = [("verify", "--model", catalog.MODELS), ("integrate", "--model", catalog.FLOWS),
           ("ladder", "--branch", catalog.BASES)]


def _ignored_flag_cases():
    """(argv, flag) for each table entry and each flag that only other entries read."""
    cases = []
    for command, selector, table in _TABLES:
        for key, builder in table.items():
            reads = cli._reads(builder)
            flags = sorted({f for b in table.values() for f in cli._reads(b)} - set(reads))
            cases += [((command, selector, key, *_OFF_DEFAULT[f]), f) for f in flags]
    return cases


_IGNORED_FLAG_CASES = _ignored_flag_cases()


@pytest.mark.parametrize("argv,flag", _IGNORED_FLAG_CASES,
                         ids=[" ".join(argv) for argv, _ in _IGNORED_FLAG_CASES])
def test_a_flag_the_chosen_model_does_not_read_is_refused(capsys, tmp_path, argv, flag):
    if argv[0] == "integrate":
        argv += ("--x0", "1", "0", "3.2", "0.5", "--steps", "3", "--csv", str(tmp_path / "x.csv"))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == f"{_OFF_DEFAULT[flag][0]} is not read by {argv[1]} {argv[2]}"
    assert not (tmp_path / "x.csv").exists()


def test_ignored_flag_cases_cover_the_known_holes():
    argvs = {argv for argv, _ in _IGNORED_FLAG_CASES}
    assert {("verify", "--model", "ttw-flat", "--k", "2"),
            ("verify", "--model", "sphere", "--m", "3"),
            ("verify", "--model", "sphere", "--no-integral"),
            ("ladder", "--branch", "hyperbolic", "--psi0", "0.5"),
            ("integrate", "--model", "free", "--k", "2")} <= argvs


def test_a_model_flag_at_its_default_is_accepted(capsys):
    # ttw-flat reads no --k; passing the default text is not an effect to refuse
    plain = run_cli(capsys, "verify", "--model", "ttw-flat", "--points", "5", "--seed", "1")
    with_k = run_cli(capsys, "verify", "--model", "ttw-flat", "--k", "1", "--points", "5",
                     "--seed", "1")
    assert plain[:2] == with_k[:2] and plain[0] == 0
    code, out, _ = run_cli(capsys, "verify", "--model", "ttw-flat", "--k", "1/1")
    assert code == 2 and json.loads(out)["error"] == "--k is not read by --model ttw-flat"


def _choices(command, flag):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if flag in a.option_strings)


@pytest.mark.parametrize("command,selector,table", _TABLES, ids=[t[0] for t in _TABLES])
def test_choices_are_the_table_keys(command, selector, table):
    assert list(_choices(command, selector)) == list(table)


def _report_digest_tool():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "report_digest.py")
    spec = importlib.util.spec_from_file_location("report_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_report_digest_argvs_are_not_refused(monkeypatch):
    # tools/report_digest.py and the bench pass every model flag to every model at its default
    digest = _report_digest_tool()

    class Built(Exception):
        pass

    build = cli._build

    def build_then_stop(table, selector, args):
        build(table, selector, args)
        raise Built

    monkeypatch.setattr(cli, "_build", build_then_stop)
    argvs = [argv for argv, _ in digest.argvs()]
    built = 0
    for argv in argvs:
        if argv in digest.REFUSED_AT_PARSE:
            with pytest.raises(ValueError, match="argument --(h|seed): expected"):
                cli._parser().parse_args(argv)
            continue
        args = cli._parser().parse_args(argv)
        if args.command in ("verify", "integrate", "ladder"):
            with pytest.raises(Built):
                args.func(args)
            built += 1
    assert (len(argvs), built, len(digest.REFUSED_AT_PARSE)) == (94, 81, 2)


def test_report_digest_is_pinned(tmp_path):
    # every report of tools/report_digest.py's 94 commands, byte for byte, as recorded
    # when the last four commands were added; with this checkout's src on PYTHONPATH, as
    # an installed extham would be, a --src that holds no extham is refused, not hashed
    root = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir))
    src, elsewhere = os.path.join(root, "src"), os.path.join(os.path.realpath(tmp_path), "src")

    def run(path):
        return subprocess.run([sys.executable, os.path.join(root, "tools", "report_digest.py"),
                               "--src", path], capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src})

    refused = run(elsewhere)
    assert (refused.returncode, refused.stdout) == (1, "")
    assert refused.stderr.splitlines() == [
        f"error: extham imported from {os.path.join(src, 'extham', '__init__.py')}, "
        f"not from --src {elsewhere}"]
    pinned = run(src)
    assert (pinned.returncode, pinned.stdout) == (
        0, "4ce850c1c064693b3831624ea4f276e93611c55cbe89c152d12ae660823f10c5\n")


@pytest.mark.parametrize("builder,model", [
    ("make_minkowski_hamiltonian", "minkowski"), ("make_curved_hamiltonian", "de-sitter"),
    ("make_flat_ttw_hamiltonian", "ttw-flat"), ("make_remark_pair", "remark-h2"),
])
def test_verify_calls_the_builders_through_the_catalog_module(capsys, monkeypatch, builder, model):
    # a tracer that patches catalog's module bindings must see every verify build
    calls = []
    real = getattr(catalog, builder)
    monkeypatch.setattr(catalog, builder, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    code, _, _ = run_cli(capsys, "verify", "--model", model, "--points", "3")
    assert code == 0 and len(calls) == 1
    if model == "minkowski":
        assert calls == [(Fraction(1), 1.0, 2.0, 0.0)]


def _refused(capsys, argv):
    """The JSON error of a run that exits 2; numpy may not warn on the way."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
    return json.loads(out)["error"]


@pytest.mark.parametrize("argv", [
    ("ccm", "--m", "120", "--n", "1", "--seed", "1"),
    ("verify", "--model", "sphere", "--k", "100", "--seed", "1"),
], ids=["ccm", "sphere"])
def test_overflowed_gradient_is_refused_not_skipped(capsys, argv):
    # point 6's gradient overflows to inf/NaN; its bracket would be NaN, which
    # max() skips, so the sweep refuses the run instead of passing or failing it
    assert _refused(capsys, argv).startswith(
        "non-finite gradient at sample point 6: PhasePoint(q=(")


def test_non_finite_ladder_residual_is_refused_not_skipped(capsys):
    # c1 is -inf and r2 NaN at every point; max() would skip NaN and pass the run
    argv = ("ladder", "--branch", "trig", "--alpha", "1e308", "--beta", "1e308", "--seed", "1")
    assert _refused(capsys, argv) == (
        "non-finite ladder residual at sample point 0: psi=0.420594741214038")


@pytest.mark.parametrize("argv,message", [
    # a jet's exp overflows inside math.exp while the residuals are taken
    (("ladder", "--eta", "1000"), "the ladder residual overflows double precision"),
    # the orbit runs; a float power inside the closed K overflows in the drift report
    (("integrate", "--x0", "1", "0", "1e100", "0.5", "--steps", "3"),
     "K(4,1) overflows double precision"),
    # at Omega != 0 the drift report holds Kbar, whose closed form overflows the same way
    (("integrate", "--omega", "0.3", "--x0", "1", "0", "1e100", "0.5", "--steps", "3"),
     "Kbar(4,1) overflows double precision"),
    # p1 * p1 overflows to inf in numpy, which names the state and prints no warning
    (("integrate", "--model", "free", "--x0", "1", "0", "1e160", "0.5", "--steps", "3"),
     "non-finite H at state 0: [1.0, 0.0, 1e+160, 0.5]"),
    # the gradients are finite, but the scale overflows and {H, K(2,1)} is NaN, which max() skips
    (("verify", "--model", "sphere", "--alpha", "1e300"),
     "non-finite bracket {H, K(2,1)} at sample point 0: PhasePoint(q=(0.28211744551986573, "
     "0.41058097281440015), p=(-0.3196092859710311, -0.3784310168640217))"),
], ids=["ladder", "integrate-k", "integrate-kbar", "integrate-free", "sphere-bracket"])
def test_an_overflow_in_a_batch_is_refused_by_name(capsys, tmp_path, argv, message):
    if argv[0] == "integrate":
        argv += ("--csv", str(tmp_path / "x.csv"))
    assert _refused(capsys, argv) == message


def _linear_sweep(h, k):
    """_bracket_sweep of H = h q1 against K = k (p1, q2) over five points, and its warnings."""
    H = PhaseFunction(lambda q, p: h * q[0], 2)
    K = PhaseFunction(lambda q, p: k[0] * p[0] + k[1] * q[1], 2)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            return cli._bracket_sweep(H, [("K", K)], sample_points(5, 1, 2))[:2], seen
        except ValueError as exc:
            return str(exc), seen


def test_an_overflowing_bracket_scale_divides_by_one_norm_at_a_time():
    # |grad H||grad K| = 1e310 overflows, while {H, K} = 1e303 does not: the
    # relative bracket is 1e-7, which fails the default tolerance of 1e-9
    (max_abs, max_rel), seen = _linear_sweep(1e155, (1e148, 1e155))
    assert max_abs == 1e303 and max_rel == pytest.approx(1e-7, rel=1e-12)
    assert seen == []


def test_an_overflowing_bracket_is_refused_by_its_point():
    # {H, K} = 1e400 is inf: K is no integral (relative bracket 1), and max() would read 0.0
    error, seen = _linear_sweep(1e200, (1e200, 0.0))
    assert error.startswith("non-finite bracket {H, K} at sample point 0: PhasePoint(q=(")
    assert seen == []


def test_an_underflowing_bracket_scale_takes_the_unit_gradients():
    # {H, K} = 1e-340 and |grad H||grad K| both underflow to 0.0, while K is no
    # integral (relative bracket 1); dividing 0.0 by 0.0 was skipped, a pass
    (max_abs, max_rel), seen = _linear_sweep(1e-170, (1e-170, 0.0))
    assert (max_abs, max_rel) == (0.0, 1.0)
    assert seen == []


def test_verify_fails_a_non_integral_whose_scale_underflows(capsys, monkeypatch):
    H = PhaseFunction(lambda q, p: 1e-170 * q[0], 2)
    K = PhaseFunction(lambda q, p: 1e-170 * p[0], 2)
    model = SimpleNamespace(id="tiny", chart="cartesian", H=H, known_integrals=[("K", K)],
                            q_windows=None, extension=None, describe=lambda: "tiny")
    monkeypatch.setattr(cli, "_verify_model", lambda args: model)
    code, out, _ = run_cli(capsys, "verify", "--model", "minkowski", "--points", "5")
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["max_rel_bracket"] == 1.0 and report["independence_rank"] == 2


def test_an_overflowing_bracket_scale_is_refused_without_warning():
    # |grad H||grad K| = 1e310: inf would make {H, K} = 1e303 read as 0 relative to it
    H = PhaseFunction(lambda q, p: 1e155 * q[0], 2)
    K = PhaseFunction(lambda q, p: 1e148 * p[0] + 1e155 * q[1], 2)
    x = phase_points(sample_points(5, 1, 2))[0]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"the bracket scale \|grad f\|\|grad g\| overflows "
                                             r"double precision at PhasePoint\(q=\(0.816"):
            bracket_scale(H, K, x)
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []


def test_an_underflowing_bracket_scale_is_refused_by_its_point():
    # |grad H||grad K| = 1e-340 rounds to 0.0 while both gradients are nonzero: a
    # tolerance times it would pass only an exact 0 bracket; a zero gradient is no underflow
    H = PhaseFunction(lambda q, p: 1e-170 * q[0], 2)
    K = PhaseFunction(lambda q, p: 1e-170 * p[0], 2)
    x = phase_points(sample_points(5, 1, 2))[0]
    with pytest.raises(ValueError, match=r"the bracket scale \|grad f\|\|grad g\| underflows "
                                         r"double precision at PhasePoint\(q=\(0.816"):
        bracket_scale(H, K, x)
    assert bracket_scale(H, PhaseFunction(lambda q, p: 1.0, 2), x) == 0.0
    assert bracket_scale(H, PhaseFunction(lambda q, p: 1e-130 * p[0], 2), x) == pytest.approx(
        1e-300, rel=1e-15)


@pytest.mark.parametrize("entry", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_gradient_is_refused_by_its_point(entry):
    # a NaN scale would pass every max(worst, b / scale); an inf entry is no overflowing scale
    H = PhaseFunction(lambda q, p: q[0] * p[1], 2)
    K = PhaseFunction(lambda q, p: entry * q[0] + p[0], 2)
    x = phase_points(sample_points(5, 1, 2))[0]
    for f, g in ((H, K), (K, H)):
        with pytest.raises(ValueError, match=r"^non-finite gradient at PhasePoint\(q=\(0.816"):
            bracket_scale(f, g, x)


def _row_norms_scale(f, g, x):
    """bracket_scale's figure as row_norms takes it, from the numpy gradients."""
    n0, n1 = row_norms(np.array([gradient(f, x), gradient(g, x)]))
    return float(n0) * float(n1)


@pytest.mark.parametrize("name", list(catalog.MODELS))
def test_bracket_scale_equals_row_norms_at_every_model_point(name):
    args = cli.build_parser().parse_args(["verify", "--model", name])
    model = cli._verify_model(args)
    pts = phase_points(sample_points(args.points, args.seed, model.H.dof, q_ranges=model.q_windows))
    for x in pts:
        for _, K in model.known_integrals:
            assert bracket_scale(model.H, K, x) == _row_norms_scale(model.H, K, x), x


def test_bracket_scale_equals_row_norms_where_squares_overflow():
    args = cli.build_parser().parse_args(["verify", "--model", "minkowski", "--k", "13", "--seed", "1"])
    model = cli._verify_model(args)
    fs = (model.H, model.known_integrals[-1][1])  # K(28,1), whose |grad K| reaches 1e248
    pts = phase_points(sample_points(args.points, args.seed, model.H.dof, q_ranges=model.q_windows))
    assert any(math.isinf(sum(v * v for v in gradient(fs[1], x).tolist())) for x in pts)
    assert [bracket_scale(*fs, x) for x in pts] == [_row_norms_scale(*fs, x) for x in pts]


def test_ccm_past_an_overflowing_scale_reports_its_bracket_without_warning(capsys):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "ccm", "--E", "1e300")
    report = json.loads(out)
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
    assert code == 0 and 0.0 < report["max_rel_bracket"] < 1e-300  # about 7.2e-316


def test_sphere_below_the_overflow_still_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "sphere", "--k", "80", "--seed", "1")
    report = json.loads(out)
    assert code == 0 and report["max_rel_bracket"] < 1e-16


def test_unwritable_csv_exits_two_with_json_error(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *a, **kw: calls.append(a))
    path = str(tmp_path / "missing" / "x.csv")
    code, out, _ = run_cli(
        capsys, "integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "5", "--csv", path,
    )
    assert code == 2
    assert "No such file" in json.loads(out)["error"]
    assert calls == []  # the path is refused before any step


def _fresh_interpreter(args, **kwargs):
    """Run python with args in a new process that imports this checkout's extham."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           **kwargs.pop("env", {})}
    return subprocess.run([sys.executable, *args], env=env, text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("argv", [
    ("verify", "--model", "minkowski"),
    ("catalog",),
    ("gamma-table", "--json"),
    ("integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "5"),
    ("--help",),
    ("verify", "--help"),
])
def test_a_closed_stdout_exits_two_with_one_stderr_line(tmp_path, argv):
    # a pipe whose read end is closed: every write to stdout raises BrokenPipeError,
    # at once when unbuffered and at the flush otherwise
    for unbuffered in ("1", ""):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _fresh_interpreter(["-m", "extham.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
                                      env={"PYTHONUNBUFFERED": unbuffered}, cwd=tmp_path)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, (unbuffered, proc.stderr)
        errors = [line for line in proc.stderr.splitlines() if not line.startswith(("verifying", "integrating"))]
        assert errors == ["error: stdout has no reader"], unbuffered


@pytest.mark.parametrize("prelude, loaded", [("", False), ("import numpy.random", True)],
                         ids=["sweeps-only", "control-imports-it"])
def test_the_sampled_checks_never_import_numpy_random(prelude, loaded):
    # sampling computes Philox itself; the control shows the probe sees the module
    probe = (f"{prelude}\nimport sys\nfrom extham.cli import main\n"
             "codes = [main(argv) for argv in (['verify', '--model', 'minkowski'], ['ccm'], ['ladder'])]\n"
             "print(codes, 'numpy.random' in sys.modules, file=sys.stderr)")
    proc = _fresh_interpreter(["-c", probe], capture_output=True)
    assert proc.stderr.splitlines()[-1] == f"[0, 0, 0] {loaded}", proc.stderr


def test_failed_integration_keeps_an_existing_csv(capsys, tmp_path, monkeypatch):
    path = tmp_path / "x.csv"
    path.write_text("old contents\n" * 100)
    argv = ("integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "5", "--csv", str(path))
    with monkeypatch.context() as mp:
        mp.setattr(cli, "integrate", lambda *a, **kw: 1 / 0)
        code, out, _ = run_cli(capsys, *argv)
    assert code == 2 and "division" in json.loads(out)["error"]
    assert path.read_text() == "old contents\n" * 100
    code, _, _ = run_cli(capsys, *argv)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert code == 0
    assert rows[0] == ["t", "q1", "q2", "p1", "p2"] and len(rows) == 7


def test_existing_csv_is_rewritten_in_place_to_the_fresh_bytes(capsys, tmp_path):
    argv = ("integrate", "--x0", "1", "0", "3.2", "0.5", "--steps")
    old, fresh = tmp_path / "old.csv", tmp_path / "fresh.csv"
    code, _, _ = run_cli(capsys, *argv, "99", "--csv", str(old))
    assert code == 0 and len(old.read_text().splitlines()) == 1 + 100
    code, _, _ = run_cli(capsys, *argv, "5", "--csv", str(old))
    assert code == 0
    code, _, _ = run_cli(capsys, *argv, "5", "--csv", str(fresh))
    assert code == 0
    assert old.read_bytes() == fresh.read_bytes()  # no stale tail of the longer run


def test_missing_csv_is_created(capsys, tmp_path):
    path = tmp_path / "new.csv"
    code, _, _ = run_cli(capsys, "integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "5",
                         "--csv", str(path))
    assert code == 0
    with open(path) as fh:
        assert len(list(csv.reader(fh))) == 7


def test_csv_that_is_a_directory_exits_two_before_any_step(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *a, **kw: calls.append(a))
    code, out, _ = run_cli(capsys, "integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "5",
                           "--csv", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == f"[Errno 21] Is a directory: {str(tmp_path)!r}"
    assert calls == []


def test_irrational_k_on_the_pseudo_polar_chart_is_refused_before_the_csv(capsys, tmp_path):
    # irrational k builds no extension, so only the null chart has an H to follow
    path = tmp_path / "x.csv"
    argv = ("integrate", "--no-integral", "--k", "1.5", "--steps", "5", "--csv", str(path))
    code, out, _ = run_cli(capsys, *argv, "--x0", "1", "0", "3.2", "0.5")
    assert code == 2
    assert json.loads(out)["error"] == (
        "--k 1.5 builds no extension, so the pseudo-polar chart has no H; use --chart null")
    assert not path.exists()
    code, out, _ = run_cli(capsys, *argv, "--chart", "null", "--x0", "1", "1", "0.5", "0.5")
    assert code == 0 and set(json.loads(out)["drift"]) >= {"H", "L"}


def test_zero_tol_is_accepted(capsys):
    for argv in (("verify", "--model", "minkowski"), ("ccm",), ("ladder",)):
        assert run_cli(capsys, *argv, "--tol", "0", "--points", "2")[0] in (0, 1)


@pytest.mark.parametrize("argv", [
    ("verify", "--model", "sphere", "--k", "29"),  # K(30,1), degree 31
    ("verify", "--model", "ttw-flat", "--m", "30", "--n", "1"),  # K(30,1) too
    ("integrate", "--model", "minkowski", "--k", "14", "--chart", "pseudo-polar",
     "--omega", "0.3", "--x0", "1", "0.3", "0.5", "0.4", "--steps", "5"),
], ids=["sphere", "ttw-flat", "integrate"])
def test_degree_cap_is_for_minkowski_verify_only(capsys, tmp_path, argv):
    if argv[0] == "integrate":
        argv += ("--csv", str(tmp_path / "x.csv"))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0, out


def _separate_sweep(H, integrals, pts):
    """The reference composition: each figure takes its own gradients."""
    max_abs = 0.0
    max_rel = 0.0
    for x in pts:
        for _, K in integrals:
            b = abs(poisson_bracket(H, K, x))
            s = bracket_scale(H, K, x)
            max_abs = max(max_abs, b)
            if s > 0:
                max_rel = max(max_rel, b / s)
    rank = min(functional_independence([H] + [f for _, f in integrals], x) for x in pts)
    return max_abs, max_rel, rank


def _assert_same_sweep(H, integrals, z):
    max_abs, max_rel, jac = cli._bracket_sweep(H, integrals, z)
    pts = phase_points(z)
    got = (max_abs, max_rel, int(jacobian_rank(jac).min()))
    assert got == _separate_sweep(H, integrals, pts)
    fs = [H] + [f for _, f in integrals]
    assert jac.tolist() == [[gradient(f, x).tolist() for f in fs] for x in pts]
    assert [type(v) for v in (max_abs, max_rel)] == [float, float]


@pytest.mark.parametrize("argv", [
    ("--model", "minkowski", "--k", "1"),
    ("--model", "minkowski", "--k", "1/2", "--omega", "0.3"),
    ("--model", "sphere", "--omega", "0.2"),
    ("--model", "ttw-flat", "--omega", "0.2"),
    ("--model", "remark-h1"),
], ids=["minkowski-k1", "minkowski-k1/2-omega", "sphere", "ttw-flat", "remark-h1"])
def test_one_jacobian_sweep_equals_separate_figures(argv):
    args = cli.build_parser().parse_args(["verify", *argv])
    model = cli._verify_model(args)
    pts = sample_points(12, 5, model.H.dof, q_ranges=model.q_windows)
    _assert_same_sweep(model.H, model.known_integrals, pts)


def test_overflowing_gradients_keep_every_bracket_checked(capsys):
    # |grad K(28,1)| reaches 1e248, so its squared norm overflows; the bracket
    # scale |grad H||grad K| must still be finite at every point of the sweep
    args = cli.build_parser().parse_args(["verify", "--model", "minkowski", "--k", "13",
                                          "--seed", "1"])
    model = cli._verify_model(args)
    pts = phase_points(sample_points(args.points, args.seed, model.H.dof, q_ranges=model.q_windows))
    fs = (model.H, model.known_integrals[-1][1])
    jac = np.array([[gradient(f, x) for f in fs] for x in pts])
    with np.errstate(over="ignore"):
        over = ~np.isfinite(np.vecdot(jac, jac)).all(axis=1)
    assert over.any()  # the overflow is really there
    norms = row_norms(jac)
    assert np.isfinite(norms[:, 0] * norms[:, 1]).all()
    assert all(np.isfinite(bracket_scale(*fs, pts[i])) for i in np.flatnonzero(over))
    code, out, _ = run_cli(capsys, "verify", "--model", "minkowski", "--k", "13", "--seed", "1")
    report = json.loads(out)
    assert code == 1 and report["independence_rank"] == 3
    assert report["max_rel_bracket"] > report["tolerance"]  # fails by bracket only


def test_one_jacobian_sweep_equals_separate_figures_ccm():
    args = cli.build_parser().parse_args(["ccm", "--m", "2", "--n", "1"])
    Hp, Kp, windows = catalog.ccm_pair(args.m, args.n, args.eta, args.alpha, args.beta, args.E)
    pts = sample_points(12, 5, 2, q_ranges=windows)
    _assert_same_sweep(Hp, [("Kprime", Kp)], pts)
    _assert_same_sweep(rescale_radial(Hp), [("K2", rescale_radial(Kp))], pts)


def test_verify_takes_each_gradient_once_per_point(capsys, monkeypatch):
    # H, L and K(4,1) on 2 dof: one partials_at each, each one evaluation
    # over every direction and point, plus the 2 nested calls K's rule makes
    original = phase.partials_at
    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return original(*a, **kw)

    for name, mod in list(sys.modules.items()):
        if name.startswith("extham") and getattr(mod, "partials_at", None) is original:
            monkeypatch.setattr(mod, "partials_at", counted)
    for points in ("1", "7"):  # one batched sweep, whatever the number of points
        calls.clear()
        code, _, _ = run_cli(capsys, "verify", "--model", "minkowski", "--k", "1", "--points", points)
        assert code == 0
        assert len(calls) == 5


@pytest.mark.parametrize("argv", [("verify", "--model", "minkowski", "--points", "50"), ("ccm",)],
                         ids=["verify", "ccm"])
def test_a_passing_sweep_builds_no_phase_point(capsys, monkeypatch, argv):
    # the sweep takes its columns from the sampler's array; only a refusal
    # builds a PhasePoint, for the point it prints
    original = PhasePoint.__post_init__
    calls = []

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(PhasePoint, "__post_init__", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == []


# the verify cases of the benchmark sweep, (model, k, Omega), at the default
# alpha, beta, eta, psi0, m, n and d
SWEEP_CASES = [
    ("minkowski", "1", "0.0"), ("minkowski", "1/2", "0.0"), ("minkowski", "2", "0.0"),
    ("minkowski", "1", "0.3"), ("minkowski", "1/2", "0.3"), ("minkowski", "5/3", "0.0"),
    ("sphere", "1", "0.0"), ("pseudosphere", "1", "0.0"), ("de-sitter", "1", "0.0"),
    ("anti-de-sitter", "1", "0.0"), ("ttw-flat", "1", "0.0"), ("remark-h1", "1", "0.0"),
    ("remark-h2", "1", "0.0"),
]


def _assert_same_gradients(fs, z):
    """Batched gradients equal the per-point ones entry for entry, not only in the maxima."""
    q, p = columns(z)
    for f in fs:
        _, dq, dp = partials_at(f, q, p)
        got = np.array([np.broadcast_to(primal(v), len(z)) for v in dq + dp]).T
        assert got.tolist() == [gradient(f, x).tolist() for x in phase_points(z)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", SWEEP_CASES, ids=["-".join(c) for c in SWEEP_CASES])
def test_batched_sweep_equals_per_point_figures(case, seed):
    model, k, omega = case
    args = cli.build_parser().parse_args(["verify", "--model", model, "--k", k, "--omega", omega])
    mdl = cli._verify_model(args)
    pts = sample_points(args.points, seed, mdl.H.dof, q_ranges=mdl.q_windows)
    _assert_same_sweep(mdl.H, mdl.known_integrals, pts)
    _assert_same_gradients([mdl.H] + [f for _, f in mdl.known_integrals], pts)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,n", [(2, 1), (4, 3)])
def test_batched_ccm_sweep_equals_per_point_figures(m, n, seed):
    args = cli.build_parser().parse_args(["ccm", "--m", str(m), "--n", str(n)])
    Hp, Kp, windows = catalog.ccm_pair(args.m, args.n, args.eta, args.alpha, args.beta, args.E)
    pts = sample_points(args.points, seed, 2, q_ranges=windows)
    _assert_same_sweep(Hp, [("Kprime", Kp)], pts)
    _assert_same_sweep(rescale_radial(Hp), [("K2", rescale_radial(Kp))], pts)
    _assert_same_gradients([Hp, Kp, rescale_radial(Hp), rescale_radial(Kp)], pts)


def test_single_point_batches(capsys):
    # --points 1 evaluates on arrays of one entry
    args = cli.build_parser().parse_args(["verify", "--model", "minkowski", "--points", "1"])
    mdl = cli._verify_model(args)
    pts = sample_points(1, args.seed, 2, q_ranges=mdl.q_windows)
    _assert_same_sweep(mdl.H, mdl.known_integrals, pts)
    code, out, _ = run_cli(capsys, "verify", "--model", "minkowski", "--points", "1")
    report = json.loads(out)
    assert code == 0 and report["num_points"] == 1
    assert report["max_abs_bracket"] == _separate_sweep(mdl.H, mdl.known_integrals, phase_points(pts))[0]
    code, out, _ = run_cli(capsys, "ccm", "--m", "4", "--n", "3", "--points", "1")
    assert code == 0 and json.loads(out)["pass"] is True


def test_pow_errors_in_a_batch_exit_two(capsys, monkeypatch):
    # overflow: q1 q2^2000 leaves double range at q2 > 1.43
    code, out, _ = run_cli(capsys, "verify", "--model", "remark-h2", "--d", "2000", "--points", "5")
    assert code == 2 and json.loads(out)["error"] == "the gradient of H overflows double precision"
    # domain: one sample point with q2 < 0 puts a negative base under q2^0.5
    z = np.array([[0.5, 0.7, 0.1, 0.2], [0.6, -0.3, 0.1, 0.2]])
    monkeypatch.setattr(cli, "sample_points", lambda *a, **kw: z)
    code, out, _ = run_cli(capsys, "verify", "--model", "remark-h1", "--d", "0.5", "--points", "2")
    assert code == 2 and json.loads(out)["error"] == "math domain error"


LARGE_SAMPLES = [
    ("verify", "--model", "sphere", "--k", "40", "--points", "5000", "--seed", "1"),
    ("ccm", "--m", "8", "--n", "3", "--points", "5000", "--seed", "1"),
    ("verify", "--model", "minkowski", "--k", "1", "--omega", "0.3", "--points", "5000", "--seed", "1"),
    ("integrate", "--omega", "0.3", "--x0", "1", "0", "3.2", "0.5", "--steps", "2000", "--csv", "orbit.csv"),
]


def test_large_samples_are_byte_identical_under_the_per_entry_libm_loop(capsys, monkeypatch, tmp_path):
    # pow_ takes an array's powers in one np.float_power; with the per-entry math.pow
    # loop in its place, each command prints the same bytes and writes the same CSV
    monkeypatch.chdir(tmp_path)

    def runs():
        out = []
        for argv in LARGE_SAMPLES:
            code, stdout, _ = run_cli(capsys, *argv)
            out.append((code, stdout, (tmp_path / "orbit.csv").read_bytes() if argv[0] == "integrate" else None))
            (tmp_path / "orbit.csv").unlink(missing_ok=True)
        return out

    fast = runs()
    entries = []

    def loop(x, r):
        entries.append(x.size)
        return dm._entrywise(math.pow, x, r)

    monkeypatch.setattr(np, "float_power", loop)
    assert runs() == fast
    # ccm fails its 1e-9 tolerance at 5000 points (max_rel_bracket 8.3e-07), on both
    assert [code for code, _, _ in fast] == [0, 1, 0, 0]
    # every large batch took its powers through the loop: 5000 points, 2001 states
    assert {5000, 2001} <= set(entries)


def test_remark_h2_refuses_d_minus_one_and_remark_h1_takes_it(capsys):
    # I2 = p1^2 + q2^(d+1)/(d+1) is not defined at d = -1; H1 and I1 are
    assert _refused(capsys, ["verify", "--model", "remark-h2", "--d=-1"]) == (
        "remark-h2 needs d != -1: I2 = p1^2 + q2^(d+1)/(d+1) divides by d+1 = 0")
    code, out, _ = run_cli(capsys, "verify", "--model", "remark-h1", "--d=-1")
    assert code == 0 and json.loads(out)["model"]["params"]["d"] == -1.0


def test_parser_reuse_leaks_nothing_between_calls(capsys, tmp_path):
    # main builds its parser once; each call must read as if on a fresh parser
    argvs = [
        ("verify", "--model", "minkowski", "--points", "3", "--tol", "1e-3", "--omega", "0.3"),
        ("ladder", "--points", "3"),
        ("verify", "--model", "minkowski", "--points", "3"),
        ("ccm", "--points", "3", "--m", "4", "--n", "3"),
        ("verify", "--model", "minkowski", "--k", "0.37", "--points", "3", "--no-integral"),
        ("integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "3",
         "--csv", str(tmp_path / "x.csv")),
        ("ccm", "--points", "3"),
        ("gamma-table",),
        ("catalog",),
    ]
    reused = [run_cli(capsys, *argv)[:2] for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    assert reused == fresh


def _drift(capsys, tmp_path, *flags):
    code, out, _ = run_cli(capsys, "integrate", *flags, "--csv", str(tmp_path / "x.csv"))
    assert code == 0
    return json.loads(out)["drift"]


def test_a_pseudo_polar_orbit_at_nonzero_omega_keeps_kbar_to_second_order(capsys, tmp_path):
    # Kbar is the first integral at Omega != 0; halving h divides its drift by ~4
    flags = ("--omega", "0.3", "--x0", "1", "0", "3.2", "0.5")
    at_h = _drift(capsys, tmp_path, *flags, "--steps", "200")
    at_half_h = _drift(capsys, tmp_path, *flags, "--steps", "400", "--h", "5e-4")
    assert set(at_h) == set(at_half_h) == {"H", "L", "Kbar(4,1)"}
    assert 3.0 <= at_h["Kbar(4,1)"] / at_half_h["Kbar(4,1)"] <= 5.5


@pytest.mark.parametrize("omega", ["0", "0.3"])
@pytest.mark.parametrize("k", ["1", "1/2", "2", "3/2"])
def test_both_charts_report_the_drift_of_the_integrals_verify_checks(capsys, tmp_path, k, omega):
    flags = ("--k", k, "--omega", omega, "--steps", "20")
    polar = _drift(capsys, tmp_path, *flags, "--x0", "1", "0", "3.2", "0.5")
    null = _drift(capsys, tmp_path, "--chart", "null", *flags, "--x0", "1", "0.5", "0.2", "0.5")
    code, out, _ = run_cli(capsys, "verify", "--model", "minkowski", "--k", k, "--omega", omega,
                           "--points", "2")
    assert code == 0
    assert set(polar) == set(null) == {"H", *json.loads(out)["integrals_checked"]}


def test_null_chart_orbit_that_leaves_the_wedge_exits_one(capsys, tmp_path):
    # the midpoint rule evaluates H only between states, so step 2320 accepted
    # a state with q2 < 0; it is dropped and the run exits 1 with a drift report
    path = tmp_path / "x.csv"
    code, out, _ = run_cli(capsys, "integrate", "--chart", "null", "--omega", "0.3",
                           "--x0", "0.7", "0.7", "2.97", "1.56", "--csv", str(path))
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "left-domain"
    assert report["exit_step"] == report["steps_completed"] == 2320
    assert set(report["drift"]) == {"H", "L", "Kbar(4,1)"}
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2322 and min(float(v) for v in rows[-1][1:3]) > 0.0

"""Negative controls: each benchmark check must reject a wrong output.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from extham import catalog  # noqa: E402
from extham.phase import PhaseFunction, PhasePoint  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def test_index_rule():
    assert checks.expected_integrals("minkowski", "1", 0.0, 2, 1) == ["L", "K(4,1)"]
    assert checks.expected_integrals("minkowski", "5/3", 0.0, 2, 1) == ["L", "K(16,3)"]
    assert checks.expected_integrals("minkowski", "1", 0.3, 2, 1) == ["L", "Kbar(4,1)"]
    assert checks.expected_integrals("minkowski", "1/2", 0.3, 2, 1) == ["L", "Kbar(6,2)"]
    assert checks.expected_integrals("sphere", "1/2", 0.0, 2, 1) == ["L", "K(3,2)"]
    assert checks.expected_integrals("ttw-flat", "1", 0.0, 2, 1) == ["L", "K(2,1)"]
    assert checks.expected_integrals("remark-h2", "1", 0.0, 2, 1) == ["I2"]


def test_verdict_must_follow_from_the_report():
    code, report = workloads.call_cli(workloads.verify_argv("minkowski", "1", 0.0, 3, points=5))
    assert checks.check_verify_report(code, report, ["L", "K(4,1)"]) is True
    with pytest.raises(CheckError):
        checks.check_verify_report(code, dict(report, max_rel_bracket=2e-9), ["L", "K(4,1)"])
    with pytest.raises(CheckError):
        checks.check_verify_report(code, report, ["L", "K(3,1)"])
    with pytest.raises(CheckError):
        checks.check_verify_report(1, report, ["L", "K(4,1)"])


def _remark_h1_integral(coef, d=2.0):
    """I1 = coef p1 (q2 p2 - p1 q1) + q2^(d+1) / sqrt(q1); coef = 2 is the true integral."""
    def value(z):
        q1, q2, p1, p2 = z
        return coef * p1 * (q2 * p2 - p1 * q1) + q2 ** (d + 1.0) / q1**0.5
    return value


POINTS = [[0.9, 1.4, 0.7, -1.1], [1.7, 0.5, -1.3, 0.4], [0.4, 1.1, 1.9, 1.2]]


def test_fd_bracket_rejects_a_perturbed_coefficient():
    h1, _ = catalog.make_remark_pair(2.0, 2.0)
    H = workloads._on_floats(h1.H)
    for z in POINTS:
        checks.check_fd_bracket(H, _remark_h1_integral(2.0), z)
        with pytest.raises(CheckError):
            checks.check_fd_bracket(H, _remark_h1_integral(2.0 * (1 + 1e-4)), z)


def test_fd_bracket_accepts_catalog_integrals():
    for model, k, omega in [("minkowski", "1", 0.0), ("minkowski", "1/2", 0.3), ("sphere", "1", 0.0)]:
        mdl = workloads.catalog_model(model, k, omega)
        label = checks.expected_integrals(model, k, omega, 2, 1)[-1]
        K = workloads._on_floats(mdl.integral(label))
        lo, hi = mdl.q_windows[0]
        z = [0.5 * (lo + hi), sum(mdl.q_windows[1]) / 2, 0.8, -0.6]
        checks.check_fd_bracket(workloads._on_floats(mdl.H), K, z)


def test_oracle_rejects_a_tampered_recursive_value():
    oracle = workloads.Oracle(1)
    ext = workloads.section3_extension(workloads.oracle_base(), 2, 1, 0.0)
    kr, kc = ext.k_recursive(), ext.k_closed()
    pts = [PhasePoint((0.8, 1.2), (0.5, -0.9)), PhasePoint((1.5, 0.6), (-1.2, 0.3))]
    good = oracle._op("K(2,1)", "span", kr, kc, ext.k_magnitude, pts)
    assert good.check(good.run())

    def tampered_rule(q, p, rule=kr.rule):
        return rule(q, p) + 1e-8 * (1.0 + abs(rule(q, p)))

    bad = oracle._op("K(2,1)", "span", PhaseFunction(tampered_rule, 2), kc, ext.k_magnitude, pts)
    with pytest.raises(CheckError):
        bad.check(bad.run())


def _integrate(tmp_path, steps, h):
    path = str(tmp_path / f"traj-{h:g}.csv")
    argv = ["integrate", "--k", "1", "--x0", "1", "0", "3.2", "0.5", "--h", repr(h),
            "--steps", str(steps), "--csv", path]
    code, report = workloads.call_cli(argv)
    assert code == 0
    return report, path


def test_flow_rejects_a_corrupted_row(tmp_path):
    report, path = _integrate(tmp_path, 200, 1e-3)
    rows = checks.read_trajectory(path)
    drift = checks.check_flow(report, rows, 200, 1e-3, 1.0, 1.0, 2.0, 0.0)
    assert drift > 0
    corrupted = list(rows)
    t, u, psi, pu, ppsi = corrupted[120]
    corrupted[120] = (t, u, psi, pu * (1 + 1e-5), ppsi)
    with pytest.raises(CheckError):
        checks.check_flow(report, corrupted, 200, 1e-3, 1.0, 1.0, 2.0, 0.0)
    with pytest.raises(CheckError):
        checks.check_flow(report, rows[:-1], 200, 1e-3, 1.0, 1.0, 2.0, 0.0)


def test_flow_order_check(tmp_path):
    r1, p1 = _integrate(tmp_path, 200, 1e-3)
    r2, p2 = _integrate(tmp_path, 400, 5e-4)
    d1 = checks.check_flow(r1, checks.read_trajectory(p1), 200, 1e-3, 1.0, 1.0, 2.0, 0.0)
    d2 = checks.check_flow(r2, checks.read_trajectory(p2), 400, 5e-4, 1.0, 1.0, 2.0, 0.0)
    assert 3.0 <= checks.check_order(d1, d2, "README orbit") <= 5.5
    with pytest.raises(CheckError):
        checks.check_order(d1, d1, "same step twice")

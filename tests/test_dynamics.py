import csv
import random
from fractions import Fraction

import numpy as np
import pytest

from extham import catalog, dynamics, phase
from extham.catalog import make_minkowski_hamiltonian
from extham.dynamics import (
    COMPLETED,
    DOMAIN_EXIT,
    LEFT_DOMAIN,
    NO_CONVERGENCE,
    Trajectory,
    drift_report,
    integrate,
)
from extham import duals as dm
from extham.phase import PhaseFunction, PhasePoint, gradient, lift_last


def free_particle():
    return PhaseFunction(lambda q, p: 0.5 * p[0] * p[0], 1)


@pytest.fixture(scope="module")
def wedge_system():
    mdl = make_minkowski_hamiltonian(Fraction(1), 1.0, 2.0, 0.0)
    H = mdl.extension.hamiltonian()
    L = lift_last(mdl.base.L, 2)
    K = mdl.extension.k_closed()
    return H, L, K


def test_free_particle_linear_motion():
    traj = integrate(free_particle(), PhasePoint((0.0,), (1.0,)), 0.01, 100)
    assert traj.status == COMPLETED
    for i, t in enumerate(traj.times):
        assert abs(traj.states[i][0] - t) <= 1e-12
        assert abs(traj.states[i][1] - 1.0) <= 1e-14


def test_second_order_energy_convergence(wedge_system):
    # escape orbit (E > 0): drift scales as h^2, so halving h divides it by ~4
    H, _, _ = wedge_system
    x0 = PhasePoint((1.0, 0.0), (3.2, 0.5))
    T = 1.6
    drifts = []
    for h in (4e-3, 2e-3, 1e-3, 5e-4):
        traj = integrate(H, x0, h, int(round(T / h)))
        assert traj.status == COMPLETED
        drifts.append(drift_report(traj, {"H": H})["H"])
    for a, b in zip(drifts, drifts[1:]):
        assert 3.0 <= a / b <= 5.5


def test_time_reversal(wedge_system):
    H, _, _ = wedge_system
    x0 = PhasePoint((1.0, 0.0), (3.2, 0.5))
    fwd = integrate(H, x0, 1e-3, 1500)
    assert fwd.status == COMPLETED
    back = integrate(H, PhasePoint.from_array(fwd.states[-1]), -1e-3, 1500)
    assert back.status == COMPLETED
    assert np.max(np.abs(back.states[-1] - x0.as_array())) <= 1e-9


def test_conserved_quantities_on_escape_orbit(wedge_system):
    H, L, K = wedge_system
    x0 = PhasePoint((1.0, 0.0), (3.2, 0.5))
    traj = integrate(H, x0, 1e-3, 4000)
    rep = drift_report(traj, {"H": H, "L": L, "K": K})
    assert rep["H"] <= 1e-4
    assert rep["L"] <= 1e-6
    assert rep["K"] <= 1e-5


def test_domain_exit_guard(wedge_system):
    # the falling orbit crosses u = 0.35 long before the step budget runs out
    H, _, _ = wedge_system
    traj = integrate(H, PhasePoint((1.0, 0.0), (0.2, 0.5)), 1e-3, 10_000, u_min=0.35)
    assert traj.status == DOMAIN_EXIT
    assert traj.exit_step is not None and traj.exit_step < 10_000
    assert traj.states[-1][0] < 0.4


def test_no_convergence_status(wedge_system):
    # a huge step near the singular region throws the first iterate out of
    # H's domain: evaluating the flow overflows at step 0
    H, _, _ = wedge_system
    traj = integrate(H, PhasePoint((0.2, 0.0), (-1.0, 0.5)), 0.5, 10)
    assert traj.status == LEFT_DOMAIN
    assert traj.exit_step is not None


def test_last_state_outside_the_domain_is_dropped():
    # H is refused below q = -0.008; step 0 evaluates it only at the midpoint
    # -0.005 and accepts q = -0.01, where H itself is refused
    def rule(q, p):
        if q[0] < -0.008:
            raise ValueError("outside")
        return 0.5 * p[0] * p[0]

    for steps in (1, 5):
        traj = integrate(PhaseFunction(rule, 1), PhasePoint((0.0,), (-1.0,)), 0.01, steps)
        assert traj.status == LEFT_DOMAIN
        assert traj.exit_step == 0
        assert traj.states.tolist() == [[0.0, -1.0]]


def test_collapsing_orbit_reports_no_convergence(wedge_system):
    # the acceptance orbit falls toward u -> 0; at step 356 every iterate
    # stays finite but the residual never reaches fp_tol in 50 iterations
    H, _, _ = wedge_system
    traj = integrate(H, PhasePoint((1.0, 0.0), (0.2, 0.5)), 1e-3, 10_000, u_min=0.05)
    assert traj.status == NO_CONVERGENCE
    assert traj.exit_step == 356
    assert np.all(np.isfinite(traj.states))


def test_drift_report_controls(wedge_system):
    H, _, _ = wedge_system
    x0 = PhasePoint((1.0, 0.0), (3.2, 0.5))
    traj = integrate(H, x0, 1e-3, 500)
    const = PhaseFunction(lambda q, p: 4.2, 2)
    psi = PhaseFunction(lambda q, p: q[1], 2)
    rep = drift_report(traj, {"const": const, "psi": psi, "H": H})
    assert rep["const"] == 0.0
    assert rep["psi"] > 0.01  # non-integral drifts O(1), reported without error
    assert rep["H"] < 1e-4


def test_drift_report_refuses_a_non_finite_value():
    # (q1 1e307) 10 overflows only at q1 = 2, so the values are [1.0, nan, 1.5];
    # max() would skip the NaN and report 0.25
    traj = Trajectory(times=np.arange(3.0), states=np.array([[1.0, 0.0], [2.0, 0.0], [1.5, 0.0]]),
                      h=1.0)
    f = PhaseFunction(lambda q, p: (q[0] * 1e307) * 10.0 - (q[0] * 1e307) * 10.0 + q[0], 1)
    with np.errstate(over="ignore", invalid="ignore"):
        values = [f(PhasePoint.from_array(z)) for z in traj.states.tolist()]
        assert repr(values) == "[1.0, nan, 1.5]"
        with pytest.raises(ValueError, match=r"non-finite f at state 1: \[2\.0, 0\.0\]"):
            drift_report(traj, {"f": f})


def test_drift_report_refuses_an_overflow_by_the_function_name():
    # a Batch power is Python's float power entry by entry, so 1e200 ** 3.0 raises
    # OverflowError inside the evaluation, which names no state
    traj = Trajectory(times=np.arange(2.0), states=np.array([[1.0, 0.0], [1e200, 0.0]]), h=1.0)
    cube = PhaseFunction(lambda q, p: q[0] ** 3.0, 1)
    with pytest.raises(ValueError, match=r"^cube overflows double precision$"):
        drift_report(traj, {"cube": cube})


def test_drift_report_equals_per_state_evaluation(wedge_system):
    # one batched evaluation per function gives the per-state drifts bit for bit
    H, L, K = wedge_system
    traj = integrate(H, PhasePoint((1.0, 0.0), (3.2, 0.5)), 1e-3, 300)
    fns = {"H": H, "L": L, "K": K, "const": PhaseFunction(lambda q, p: 4.2, 2)}
    rep = drift_report(traj, fns)
    for name, f in fns.items():
        values = [f(PhasePoint.from_array(z)) for z in traj.states]
        assert rep[name] == max(abs(v - values[0]) for v in values) / (1.0 + abs(values[0]))


def test_csv_round_trip(tmp_path, wedge_system):
    H, _, _ = wedge_system
    traj = integrate(H, PhasePoint((1.0, 0.0), (3.2, 0.5)), 1e-3, 50)
    path = tmp_path / "traj.csv"
    with open(path, "w", newline="") as fh:
        traj.write_csv(fh)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q1", "q2", "p1", "p2"]
    assert len(rows) == len(traj.states) + 1
    # full double precision survives the round trip
    for i in (1, 25, len(rows) - 1):
        vals = [float(v) for v in rows[i]]
        assert vals[0] == traj.times[i - 1]
        assert vals[1:] == list(traj.states[i - 1])


def test_step_size_validation():
    with pytest.raises(ValueError):
        integrate(free_particle(), PhasePoint((0.0,), (1.0,)), 0.0, 10)


def test_dof_mismatch_is_refused():
    with pytest.raises(ValueError, match="1 dof evaluated at a 2-dof point"):
        integrate(free_particle(), PhasePoint((0.0, 0.0), (1.0, 1.0)), 0.01, 10)


@np.errstate(over="ignore")
def vector_integrate(H, x0, h, steps, fp_tol=1e-13, max_iter=50, u_min=None, u_slot=0):
    """The midpoint loop on numpy state vectors: (states, status, exit_step).

    A reference for integrate's float loop, which must reproduce it bit for
    bit: midpoint 0.5 * (z + y), update z + h * rhs, residual max |y_new - y|.
    """

    def rhs(z):
        d = len(z) // 2
        g = gradient(H, PhasePoint.from_array(z))
        return np.concatenate([g[d:], -g[:d]])

    z = x0.as_array()
    states = [z.copy()]
    status, exit_step = COMPLETED, None
    for step in range(steps):
        if u_min is not None and z[u_slot] < u_min:
            status, exit_step = DOMAIN_EXIT, step
            break
        y = z.copy()
        failure = NO_CONVERGENCE
        for _ in range(max_iter):
            try:
                y_new = z + h * rhs(0.5 * (z + y))
            except (OverflowError, ValueError, ZeroDivisionError):
                failure = LEFT_DOMAIN
                break
            if not np.all(np.isfinite(y_new)):
                failure = LEFT_DOMAIN
                break
            residual = np.max(np.abs(y_new - y))
            y = y_new
            if residual <= fp_tol:
                failure = None
                break
        if failure is not None:
            status, exit_step = failure, step
            break
        z = y
        states.append(z.copy())
    if len(states) > 1:
        try:
            H(PhasePoint.from_array(states[-1]))
        except (OverflowError, ValueError, ZeroDivisionError):
            states.pop()
            status, exit_step = LEFT_DOMAIN, len(states) - 1
    return np.array(states), status, exit_step


def assert_matches_vector_loop(H, x0, h, steps, **kw):
    traj = integrate(H, x0, h, steps, **kw)
    states, status, exit_step = vector_integrate(H, x0, h, steps, **kw)
    assert traj.states.dtype == np.float64
    assert traj.states.shape == states.shape
    assert traj.states.tolist() == states.tolist()
    assert (traj.status, traj.exit_step) == (status, exit_step)
    return traj


@pytest.mark.parametrize("k, omega, x0", [
    ("1", 0.0, (1.03, -0.02, 3.15, 0.54)),
    ("1/2", 0.0, (0.95, 0.07, 3.24, 0.46)),
    ("2", 0.0, (1.06, 0.01, 3.17, 0.58)),
    ("1", 0.3, (0.98, -0.08, 3.26, 0.43)),
])
@pytest.mark.parametrize("h", [1e-3, 5e-4])
def test_flow_orbits_equal_the_vector_loop(k, omega, x0, h):
    H = make_minkowski_hamiltonian(Fraction(k), 1.0, 2.0, omega).extension.hamiltonian()
    traj = assert_matches_vector_loop(H, PhasePoint(x0[:2], x0[2:]), h, 50, u_min=0.05)
    assert traj.status == COMPLETED and len(traj.states) == 51


def test_collapsing_orbit_equals_the_vector_loop(wedge_system):
    H, _, _ = wedge_system
    traj = assert_matches_vector_loop(H, PhasePoint((1.0, 0.0), (0.2, 0.5)), 1e-3, 10_000,
                                      u_min=0.05)
    assert (traj.status, traj.exit_step) == (NO_CONVERGENCE, 356)


def test_large_and_negative_steps_equal_the_vector_loop(wedge_system):
    H, _, _ = wedge_system
    traj = assert_matches_vector_loop(H, PhasePoint((0.2, 0.0), (-1.0, 0.5)), 0.5, 10)
    assert (traj.status, traj.exit_step) == (LEFT_DOMAIN, 0)
    traj = assert_matches_vector_loop(H, PhasePoint((1.0, 0.0), (3.2, 0.5)), -1e-3, 50)
    assert traj.status == COMPLETED


def test_one_dof_rule_equals_the_vector_loop():
    pendulum = PhaseFunction(lambda q, p: 0.5 * p[0] * p[0] - dm.cos(q[0]), 1)
    traj = assert_matches_vector_loop(pendulum, PhasePoint((0.4,), (1.1,)), 0.01, 200)
    assert traj.states.shape == (201, 2)


def test_overflowing_midpoint_leaves_the_domain():
    # the first iterate is finite (q = 1.1e308), but its midpoint with the
    # state overflows: z + y exceeds the largest double
    traj = assert_matches_vector_loop(free_particle(), PhasePoint((8e307,), (3e307,)), 1.0, 5)
    assert (traj.status, traj.exit_step) == (LEFT_DOMAIN, 0)
    assert traj.states.tolist() == [[8e307, 3e307]]


@pytest.mark.parametrize("flow,x0,h,steps,exit_step,midpoint", [
    # the null-chart orbit: at step 2320 a midpoint has q2 < 0, outside the wedge
    (("1", 0.3, "null", 0.05), (0.7, 0.7, 2.97, 1.56), 1e-3, 10_000, 2320,
     (3.702611483158483, -7.661689122008715e-05, -0.8090555635335563, -1.0453621687849435)),
    # straight at the gamma pole: the first iterate is u = -2^-7, so the second
    # iteration's midpoint is u = 0, where the pole guard fails
    (("1", 0.0, "pseudo-polar", None), (2**-7, 0.1, -16.0, 0.5), 2**-10, 100, 0,
     (0.0, -15.899999999999999, -7139.152073169392, -68.59986704477633)),
], ids=["null chart leaves the wedge", "gamma pole"])
def test_fallback_inside_a_solve_equals_the_vector_loop(monkeypatch, flow, x0, h, steps,
                                                        exit_step, midpoint):
    # a guard of the compiled partials fails in the middle of a solve: the
    # program calls partials_at once, which raises, and the step leaves the domain
    k, omega, chart, u_min = flow
    H, _, u_min = catalog.FLOWS["minkowski"](k, 1.0, 2.0, omega, False, chart, u_min)
    x0 = PhasePoint(x0[:2], x0[2:])
    seeded = phase.partials_at
    calls = []
    monkeypatch.setattr(phase, "partials_at",
                        lambda f, q, p: calls.append(q + p) or seeded(f, q, p))
    traj = integrate(H, x0, h, steps, u_min=u_min)
    assert calls[1:] == [midpoint]  # calls[0] is compile_partials tracing at x0
    assert (traj.status, traj.exit_step) == (LEFT_DOMAIN, exit_step)
    monkeypatch.setattr(phase, "partials_at", seeded)
    assert_matches_vector_loop(H, x0, h, steps, u_min=u_min)


def test_a_single_iteration_does_not_converge(wedge_system):
    H, _, _ = wedge_system
    traj = assert_matches_vector_loop(H, PhasePoint((1.0, 0.0), (3.2, 0.5)), 1e-3, 10, max_iter=1)
    assert (traj.status, traj.exit_step) == (NO_CONVERGENCE, 0)
    assert traj.states.tolist() == [[1.0, 0.0, 3.2, 0.5]]


@pytest.mark.parametrize("steps", [1, 10, 1000])
def test_one_program_per_run(monkeypatch, wedge_system, steps):
    # the partials and the fixed-point solve are each compiled once, at the start
    made = []

    def counting(source, filename, mode):
        made.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(dm, "compile", counting, raising=False)
    H, _, _ = wedge_system
    traj = integrate(H, PhasePoint((1.0, 0.0), (3.2, 0.5)), 1e-3, steps)
    assert traj.status == COMPLETED
    assert made == ["<compile_partials>", "<integrate solve>"]


def _bench_flow_orbits():
    # the benchmark's flow orbits at seed 1: each x0 jitters (1, 0, 3.2, 0.5)
    # by up to 0.1 per coordinate, from random.Random(1000 + i)
    out = []
    for i, (k, omega) in enumerate([("1", 0.0), ("1/2", 0.0), ("2", 0.0), ("1", 0.3)]):
        rng = random.Random(1000 + i)
        x0 = [c + rng.uniform(-0.1, 0.1) for c in (1.0, 0.0, 3.2, 0.5)]
        for h in (1e-3, 5e-4):
            out.append((f"bench k={k} Omega={omega} h={h:g}", (k, omega, "pseudo-polar"), x0, h,
                        round(0.2 / h), COMPLETED))
    return out


ORBITS = _bench_flow_orbits() + [
    # the null-chart orbit that leaves the wedge after step 2320
    ("null chart leaves the wedge", ("1", 0.3, "null"), [0.7, 0.7, 2.97, 1.56], 1e-3, 10_000,
     LEFT_DOMAIN),
    # criterion 08's orbit, which stops converging at step 356
    ("criterion 08", ("1", 0.0, "pseudo-polar"), [1.0, 0.0, 0.2, 0.5], 1e-3, 10_000,
     NO_CONVERGENCE),
]


@pytest.mark.parametrize("label,flow,x0,h,steps,status", ORBITS, ids=[o[0] for o in ORBITS])
def test_compiled_partials_keep_every_trajectory(monkeypatch, label, flow, x0, h, steps, status):
    # the compiled program serves every iteration of the emitted solve; with a
    # plain partials_at wrapper in its place, the trajectory is the same bit for bit
    k, omega, chart = flow
    H, _, u_min = catalog.FLOWS["minkowski"](k, 1.0, 2.0, omega, False, chart, 0.05)
    x0 = PhasePoint(x0[:2], x0[2:])
    seeded = phase.partials_at
    seeded_calls = []
    monkeypatch.setattr(phase, "partials_at", lambda *a: seeded_calls.append(1) or seeded(*a))
    compiled = integrate(H, x0, h, steps, u_min=u_min)
    assert compiled.status == status
    if status == COMPLETED:
        assert len(seeded_calls) == 1  # the trace at x0; the program served every iteration
    monkeypatch.setattr(dynamics, "compile_partials",
                        lambda H, q, p: lambda *z: phase.partials_at(H, z[:2], z[2:]))
    plain = integrate(H, x0, h, steps, u_min=u_min)
    assert seeded_calls
    assert compiled.states.tolist() == plain.states.tolist()
    assert (compiled.status, compiled.exit_step) == (plain.status, plain.exit_step)

"""Implicit-midpoint integration of Hamiltonian flows with drift reporting.

The midpoint rule is symplectic for arbitrary smooth H (the warped kinetic
terms here are not separable, which rules out leapfrog) and symmetric, so
trajectories are time-reversible and energy error stays bounded at second
order. The implicit stage is solved by fixed-point iteration; gradients come
from the exact differentiation scheme.

Each step's implicit stage is one call to a solve function emitted for the
run's dof and compiled once per run, right after ``phase.compile_partials``
has made H's partials program at x0. Every quantity in it is a scalar local,
and it runs the IEEE operations, in the same order, of the numpy-vector
loop that the tests keep as a reference, so trajectories equal it bit for
bit. Where a branch of H goes the other way, the partials program returns
``partials_at``'s answer, which raises where H leaves its domain; an
operation that raises in the program raises the exception ``partials_at``
raises there. The solve turns OverflowError, ValueError and
ZeroDivisionError, or a midpoint or iterate that is not finite, into
LEFT_DOMAIN, and max_iter iterations without convergence into
NO_CONVERGENCE. It starts every solve from the last state rather than from
a predictor such as ``z + h * slope``: a predictor saves about one iteration
per step but moves every iterate in its last bits, which changes where a
collapsing orbit stops and how.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .duals import define
from .phase import batch_blocks, compile_partials, evaluate_batch

COMPLETED = "completed"
DOMAIN_EXIT = "domain-exit"
NO_CONVERGENCE = "no-convergence"
LEFT_DOMAIN = "left-domain"


@dataclass
class Trajectory:
    """Uniform-step trajectory; states has shape (len(times), 2*dof)."""

    times: np.ndarray
    states: np.ndarray
    h: float
    method: str = "implicit-midpoint"
    status: str = COMPLETED
    exit_step: int = None

    @property
    def dof(self):
        return self.states.shape[1] // 2

    def write_csv(self, fh):
        """Write t, q..., p... rows to fh, a text file opened with newline=""."""
        d = self.dof
        header = ["t"] + [f"q{i+1}" for i in range(d)] + [f"p{i+1}" for i in range(d)]
        w = csv.writer(fh)
        w.writerow(header)
        for t, s in zip(self.times.tolist(), self.states.tolist()):
            w.writerow([repr(t)] + [repr(v) for v in s])


def integrate(H, x0, h, steps, fp_tol=1e-13, max_iter=50, u_min=None):
    """Implicit-midpoint trajectory of Hamilton's equations from x0.

    h may be negative (the method is symmetric, so this is the exact time
    reversal). When u_min is given, the run truncates with DOMAIN_EXIT as
    soon as the first position coordinate drops below it. An implicit solve whose
    residual never falls to fp_tol in max_iter iterations truncates with
    NO_CONVERGENCE; one whose iterate leaves H's domain (evaluating the flow
    raises, or the midpoint or iterate is no longer finite) truncates with
    LEFT_DOMAIN. The rule evaluates H only between states, so when the run
    stops H is evaluated once at the last state: if that raises, the state
    is dropped and the run truncates with LEFT_DOMAIN at the step that
    produced it.
    """
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    d = x0.dof
    if H.dof != d:
        raise ValueError(f"function of {H.dof} dof evaluated at a {d}-dof point")
    solve = _compile_solve(compile_partials(H, x0.q, x0.p), d, fp_tol, max_iter)
    z = x0.q + x0.p
    states = [z]
    status = COMPLETED
    exit_step = None
    for step in range(steps):
        if u_min is not None and z[0] < u_min:
            status, exit_step = DOMAIN_EXIT, step
            break
        failure, y = solve(*z, h)
        if failure is not None:
            status, exit_step = failure, step
            break
        z = y
        states.append(z)
    if len(states) > 1:
        last = states[-1]
        try:
            H.rule(last[:d], last[d:])
        except (OverflowError, ValueError, ZeroDivisionError):
            states.pop()
            status, exit_step = LEFT_DOMAIN, len(states) - 1
    n = len(states)
    times = np.arange(n, dtype=float) * h
    return Trajectory(times=times, states=np.array(states), h=h, status=status,
                      exit_step=exit_step)


def _compile_solve(partials, d, fp_tol, max_iter):
    """solve(z_0, ..., z_{2d-1}, h) -> (failure, y): one step's fixed-point solve.

    Every quantity is a scalar local; failure is None with y the new state, or
    a status with y None. Emitted for d and compile()d once per run.
    """
    z, y, m, w = ([f"{c}{i}" for i in range(2 * d)] for c in "zymw")
    dq, dp = ([f"{c}{i}" for i in range(d)] for c in ("dq", "dp"))

    def each(form, *cols):
        return [form.format(*row) for row in zip(*cols)]

    def seq(names):
        return ", ".join(names)

    left = "return LEFT_DOMAIN, None"
    body = [
        f"{seq(y)} = {seq(z)}",
        "for _ in range(max_iter):",
        *each("    {} = 0.5 * ({} + {})", m, z, y),
        f"    if not ({' and '.join(each('isfinite({})', m))}):",
        f"        {left}",
        "    try:",
        f"        _, ({seq(dq)},), ({seq(dp)},) = partials({seq(m)})",
        "    except (OverflowError, ValueError, ZeroDivisionError):",
        f"        {left}",
        *each("    {} = {} + h * float({})", w[:d], z[:d], dp),
        *each("    {} = {} + h * -float({})", w[d:], z[d:], dq),
        f"    if not ({' and '.join(each('isfinite({})', w))}):",
        f"        {left}",
        f"    if {' and '.join(each('abs({} - {}) <= fp_tol', w, y))}:",
        f"        return None, ({seq(w)},)",
        f"    {seq(y)} = {seq(w)}",
        "return NO_CONVERGENCE, None",
    ]
    namespace = {"partials": partials, "isfinite": math.isfinite, "fp_tol": fp_tol,
                 "max_iter": max_iter, "LEFT_DOMAIN": LEFT_DOMAIN,
                 "NO_CONVERGENCE": NO_CONVERGENCE}
    return define("solve", z + ["h"], body, namespace, "<integrate solve>")


def drift_report(traj, functions):
    """Max relative drift |f(x_t) - f(x_0)| / (1 + |f(x_0)|) per function.

    functions maps name -> PhaseFunction. Each is evaluated once, on all states
    as Batch leaves, by phase.evaluate_batch: numpy does not warn, an overflow
    inside raises ValueError "<name> overflows double precision", other failures
    propagate, and a value that is not finite raises ValueError naming the
    function and the first such state, since max would skip a NaN.
    """
    q, p = batch_blocks(traj.states)
    out = {}
    for name, f in functions.items():
        if f.dof != traj.dof:
            raise ValueError(f"function of {f.dof} dof evaluated at a {traj.dof}-dof point")
        values = np.broadcast_to(evaluate_batch(name, f.rule, q, p), len(traj.states))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"non-finite {name} at state {bad[0]}: {traj.states[bad[0]].tolist()}")
        values = values.tolist()
        f0 = values[0]
        denom = 1.0 + abs(f0)
        out[name] = max(abs(v - f0) for v in values) / denom
    return out

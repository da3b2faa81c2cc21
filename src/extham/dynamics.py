"""Implicit-midpoint integration of Hamiltonian flows with drift reporting.

The midpoint rule is symplectic for arbitrary smooth H (the warped kinetic
terms here are not separable, which rules out leapfrog) and symmetric, so
trajectories are time-reversible and energy error stays bounded at second
order. The implicit stage is solved by fixed-point iteration; gradients come
from the exact differentiation scheme.

Each step's implicit stage is one call to a solve function emitted for the
run's dof and compiled once per run. H's partials are written inline in it:
``phase.trace_partials`` traces them once at x0, and its lines run over the
midpoint in each iteration, which then makes no call and builds no list.
Every quantity is a scalar local, and the solve runs the IEEE operations, in
the same order, of the numpy-vector loop that the tests keep as a
reference, so trajectories equal it bit for bit. Where a branch of H goes
the other way, a private exception hands that iteration to ``partials_at``,
which raises where H leaves its domain; an operation that raises in the
inlined lines raises the exception ``partials_at`` raises there. The solve
turns OverflowError, ValueError and ZeroDivisionError, from either, or a
midpoint or iterate that is not finite, into LEFT_DOMAIN, and 50 iterations
without converging to 1e-13 into NO_CONVERGENCE. It starts every solve from
the last state rather than from a predictor such as ``z + h * slope``: a
predictor saves about one iteration per step but moves every iterate in its
last bits, which changes where a collapsing orbit stops and how.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .duals import define
from . import phase

COMPLETED = "completed"
DOMAIN_EXIT = "domain-exit"
NO_CONVERGENCE = "no-convergence"
LEFT_DOMAIN = "left-domain"


@dataclass
class Trajectory:
    """Uniform-step trajectory; states has shape (len(times), 2*dof)."""

    times: "np.ndarray"
    states: "np.ndarray"
    h: float
    status: str = COMPLETED
    exit_step: int = None
    method = "implicit-midpoint"  # not a field: integrate has one method

    @property
    def dof(self):
        return self.states.shape[1] // 2

    def write_csv(self, fh):
        """Write t, q..., p... rows of reprs to fh, a text file opened with newline="",
        as csv.writer writes them: no repr holds a comma, quote or line break."""
        d = self.dof
        header = ["t"] + [f"q{i+1}" for i in range(d)] + [f"p{i+1}" for i in range(d)]
        fh.write(",".join(header) + "\r\n")
        row = ",".join(["{!r}"] * (2 * d + 1)) + "\r\n"
        rows = np.column_stack((self.times, self.states)).tolist()
        fh.writelines(itertools.starmap(row.format, rows))


def integrate(H, x0, h, steps, u_min=None):
    """Implicit-midpoint trajectory of Hamilton's equations from x0.

    h may be negative (the method is symmetric, so this is the exact time
    reversal). When u_min is given, each of the steps + 1 states is tested
    once, and the run truncates with DOMAIN_EXIT at the first whose first
    position coordinate is below it. An implicit solve whose residual max
    |w - y| never falls to 1e-13 in 50 iterations truncates with
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
    solve = _compile_solve(H, x0.q, x0.p)
    z = x0.q + x0.p
    states = [z]
    status = COMPLETED
    exit_step = None
    for step in range(steps + 1):  # state `step` is tested, then stepped from if step < steps
        if u_min is not None and z[0] < u_min:
            status, exit_step = DOMAIN_EXIT, step
            break
        if step == steps:
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


class _Flipped(Exception):
    """A guard of the inlined partials came out the other way; args[0] is partials_at's answer."""


def _compile_solve(H, q, p):
    """solve(z_0, ..., z_{2d-1}, h) -> (failure, y): one step's fixed-point solve.

    Every quantity is a scalar local; failure is None with y the new state, or
    a status with y None. H's partials are trace_partials(H, q, p)'s lines,
    written inline over the midpoint, which is named as the tape's inputs.
    """
    d = len(q)
    tape, lines, answer = phase.trace_partials(H, q, p)
    m = tape.params
    z, y, w = ([f"{c}{i}" for i in range(2 * d)] for c in "zyw")
    dq, dp = ([f"{c}{i}" for i in range(d)] for c in ("dq", "dp"))

    def fallback(*mid):
        raise _Flipped(phase.partials_at(H, mid[:d], mid[d:]))

    def each(form, *cols):
        return [form.format(*row) for row in zip(*cols)]

    def seq(names):
        return ", ".join(names)

    left = "return LEFT_DOMAIN, None"
    body = [
        f"{seq(y)} = {seq(z)}",
        "for _ in range(50):",
        *each("    {} = 0.5 * ({} + {})", m, z, y),
        f"    if not ({' and '.join(each('isfinite({})', m))}):",
        f"        {left}",
        "    try:",
        *["        " + line for line in lines],
        *each("        {} = {}", dq + dp, answer[1:]),
        "    except Flipped as flip:",
        f"        _, ({seq(dq)},), ({seq(dp)},) = flip.args[0]",
        "    except (OverflowError, ValueError, ZeroDivisionError):",
        f"        {left}",
        *each("    {} = {} + h * {}", w[:d], z[:d], dp),
        *each("    {} = {} + h * -{}", w[d:], z[d:], dq),
        f"    if not ({' and '.join(each('isfinite({})', w))}):",
        f"        {left}",
        f"    if {' and '.join(each('abs({} - {}) <= 1e-13', w, y))}:",
        f"        return None, ({seq(w)},)",
        f"    {seq(y)} = {seq(w)}",
        "return NO_CONVERGENCE, None",
    ]
    tape.namespace.update(fallback=fallback, Flipped=_Flipped, isfinite=math.isfinite,
                          LEFT_DOMAIN=LEFT_DOMAIN, NO_CONVERGENCE=NO_CONVERGENCE)
    return define("solve", z + ["h"], body, tape.namespace, "<integrate solve>")


def drift_report(traj, functions):
    """Max relative drift |f(x_t) - f(x_0)| / (1 + |f(x_0)|) per function.

    functions maps name -> PhaseFunction. Each is evaluated once, on the state
    columns as float64 array leaves, by phase.evaluate_batch: numpy does not
    warn, an overflow inside raises ValueError "<name> overflows double
    precision", other failures propagate, and a value that is not finite raises
    ValueError naming the function and the first such state. A rule that writes
    its powers through duals.pow_ gives each state its float value bit for bit.
    The maximum is then taken over finite values, where numpy's subtraction,
    abs and max are exact as Python's are.
    """
    cols = tuple(traj.states.T)
    q, p = cols[:traj.dof], cols[traj.dof:]
    out = {}
    for name, f in functions.items():
        if f.dof != traj.dof:
            raise ValueError(f"function of {f.dof} dof evaluated at a {traj.dof}-dof point")
        values = np.broadcast_to(phase.evaluate_batch(name, f.rule, q, p), len(traj.states))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"non-finite {name} at state {bad[0]}: {traj.states[bad[0]].tolist()}")
        f0 = float(values[0])
        out[name] = float(np.abs(values - f0).max()) / (1.0 + abs(f0))
    return out
